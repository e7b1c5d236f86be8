package core

import (
	"context"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// Discover runs the level-wise discovery framework over the table and
// returns the complete, minimal set of verified dependencies under the
// configured validator and threshold (see the package comment for the exact
// semantics and caveats of the iterative validator).
func Discover(tbl *dataset.Table, cfg Config) (*Result, error) {
	return DiscoverContext(context.Background(), tbl, cfg)
}

// DiscoverContext is Discover with cooperative cancellation: the context is
// polled between candidate validations, so a canceled run stops within one
// validation's latency instead of finishing the lattice. On cancellation the
// partial result is returned with Stats.Canceled set and a nil error — the
// same contract as a TimeLimit abort (callers that need the distinction can
// inspect ctx.Err()). It is the serial-executor instantiation of the shared
// Pipeline.
func DiscoverContext(ctx context.Context, tbl *dataset.Table, cfg Config) (*Result, error) {
	return Pipeline{}.Run(ctx, tbl, cfg)
}

// engine is the node-processing stage shared by every schedule: it examines
// the candidates hosted at one lattice node, routing them through the
// configured validator and the axiom-based pruning. Engines are cheap; the
// pool owns one per runner (Validator scratch is not concurrency-safe), all
// sharing one traversal.
type engine struct {
	t *traversal
	v *validate.Validator
	// res is the accumulation target of applyTask (the traversal's result)
	// and the home of the engine's abort flags.
	res *Result
	// scratch is the engine's reusable NodeResult for the apply-immediately
	// inline path (processNode); dispatched slices retain their results
	// across a level in per-level slots instead.
	scratch NodeResult
}

// aborted reports that the run must stop, recording the cause in the
// engine's stats.
func (e *engine) aborted() bool {
	return e.t.abortedInto(&e.res.Stats)
}

// processNode examines all candidates hosted at the node through the
// location-transparent task path: propagate validity state from the parents
// into a NodeTask (buildTask), validate its candidates (execTask), and fold
// the result back into the node and the engine's result (applyTask). It
// returns the number of candidates validated (for the early-stop rule).
// Dispatched slices run the same three stages with execTask on a runner.
func (e *engine) processNode(node *lattice.Node, parents *lattice.Level) int {
	task := buildTask(node, parents, e.t.numAttrs, e.t.cfg.Bidirectional)
	// The node's result is applied before the next node, so the engine's
	// scratch NodeResult serves every node without allocating.
	e.execTask(&task, &e.scratch)
	e.applyTask(node, &task, &e.scratch)
	return e.scratch.Candidates
}

// columnB returns the B column in the requested direction.
func (e *engine) columnB(b int, desc bool) *dataset.Column {
	if desc {
		return e.t.tbl.Column(b).Reversed()
	}
	return e.t.tbl.Column(b)
}

// sampleMinRows is the smallest non-singleton context coverage for which the
// hybrid-sampling pre-filter is worth running.
const sampleMinRows = 512

// sampleRejects applies the hybrid-sampling pre-filter: true means the
// candidate's sampled error estimate is so far above the threshold that full
// validation is skipped.
func (e *engine) sampleRejects(ctx *partition.Stripped, a, b int, desc bool) bool {
	if e.t.cfg.SampleStride <= 1 || e.t.cfg.Validator == ValidatorExact {
		return false
	}
	if ctx.Size() < sampleMinRows {
		return false
	}
	slack := e.t.cfg.SampleSlack
	if slack == 0 {
		slack = DefaultSampleSlack
	}
	est, sampled := e.v.SampledAOCEstimate(ctx, e.t.tbl.Column(a), e.columnB(b, desc), e.t.cfg.SampleStride)
	if sampled == 0 {
		return false
	}
	return est > e.t.eps+slack
}

func (e *engine) validateOFD(ctx *partition.Stripped, col *dataset.Column) validate.Result {
	if e.t.cfg.Validator == ValidatorExact {
		if validate.ExactOFD(ctx, col) {
			return validate.Result{Valid: true}
		}
		return validate.Result{Valid: false, Aborted: true}
	}
	return e.v.ApproxOFD(ctx, col, validate.Options{Threshold: e.t.eps})
}

// validateOCVia validates the OC candidate with context set gpSet (whose
// partition is ctx) over attributes a and b (B descending when desc),
// routing to the configured validator — including the sorted-scan exact
// route when enabled (Serial only; the memo caches the class ids).
func (e *engine) validateOCVia(gpSet lattice.AttrSet, ctx *partition.Stripped, a, b int, desc bool) validate.Result {
	cb := e.columnB(b, desc)
	if e.t.orders != nil && e.t.cfg.Validator == ValidatorExact {
		ids := e.t.memo.ClassIDs(gpSet)
		ok, _ := e.v.ExactOCScan(ids, ctx.NumClasses(), e.t.orders.Order(a),
			e.t.tbl.Column(a), cb)
		return validate.Result{Valid: ok, Aborted: !ok}
	}
	return e.validateOC(ctx, e.t.tbl.Column(a), cb)
}

func (e *engine) validateOC(ctx *partition.Stripped, a, b *dataset.Column) validate.Result {
	switch e.t.cfg.Validator {
	case ValidatorExact:
		if ok, _ := e.v.ExactOC(ctx, a, b); ok {
			return validate.Result{Valid: true}
		}
		return validate.Result{Valid: false, Aborted: true}
	case ValidatorIterative:
		return e.v.IterativeAOC(ctx, a, b, validate.Options{Threshold: e.t.eps})
	default:
		return e.v.OptimalAOC(ctx, a, b, validate.Options{Threshold: e.t.eps})
	}
}

// collectOCRemovals re-validates a verified OC with removal collection. The
// optimal validator is used even under the iterative configuration — once a
// dependency is deemed valid, the minimal removal set is the useful artifact
// for repair.
func (e *engine) collectOCRemovals(ctx *partition.Stripped, a, b int, desc bool) []int32 {
	r := e.v.OptimalAOC(ctx, e.t.tbl.Column(a), e.columnB(b, desc),
		validate.Options{Threshold: 1, CollectRemovals: true})
	return r.RemovalRows
}
