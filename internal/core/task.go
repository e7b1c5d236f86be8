package core

import (
	"math/bits"
	"time"

	"aod/internal/lattice"
	"aod/internal/validate"
)

// NodeTask is the serializable work unit of one lattice node: everything a
// validator needs to process the node's candidates without access to the
// coordinator's lattice. The coordinator performs validity-state propagation
// (which needs the whole previous level) when building the task; the task
// then carries only attribute sets and bitmasks — never partitions — so a
// level ships to a remote shard as a few hundred bytes per node while the
// worker rebuilds partitions from its locally cached single-column
// partitions. All fields are plain integers/slices with stable JSON names:
// the shard wire protocol marshals tasks directly.
type NodeTask struct {
	// Set is the node's attribute set as a bitmask.
	Set uint64 `json:"set"`
	// Level is |Set|.
	Level int `json:"level"`
	// ConstValid is the OFD validity propagated from the parents (the union
	// of ParentConst): attributes whose OFD is already valid in a strict
	// sub-context, pruning non-minimal OFD candidates here.
	ConstValid uint64 `json:"constValid"`
	// ParentConst holds each parent's ConstValid, indexed like Set's
	// attributes in ascending order: ParentConst[i] belongs to the parent
	// Set \ {i-th attribute}. The OC constancy pruning tests a specific
	// parent, not the union, so the per-parent masks ride along.
	ParentConst []uint64 `json:"parentConst"`
	// OCValid and OCValidDesc are the propagated pair-validity bitsets
	// (lattice.PairSet words): pairs with a valid OC in some sub-context,
	// pruning non-minimal OC candidates. On the inline path the slices alias
	// the node's own sets (zero copy); dispatched slices carry copies, and on
	// the wire they serialize as plain integers.
	OCValid     []uint64 `json:"ocValid,omitempty"`
	OCValidDesc []uint64 `json:"ocValidDesc,omitempty"`
}

// TaskOC is one order compatibility verified while executing a task,
// identified by attribute indexes (the coordinator re-attaches context and
// score, which are functions of the task's set and level).
type TaskOC struct {
	A           int     `json:"a"`
	B           int     `json:"b"`
	Descending  bool    `json:"desc,omitempty"`
	Error       float64 `json:"error"`
	Removals    int     `json:"removals"`
	RemovalRows []int32 `json:"removalRows,omitempty"`
}

// TaskOFD is one order functional dependency verified while executing a
// task. Shipped only under Config.IncludeOFDs — NewConst carries the
// validity bits that drive pruning either way.
type TaskOFD struct {
	A           int     `json:"a"`
	Error       float64 `json:"error"`
	Removals    int     `json:"removals"`
	RemovalRows []int32 `json:"removalRows,omitempty"`
}

// TaskStats is the per-task fragment of the run statistics: the counters a
// task execution owns, independent of where it ran. Merged into the run's
// Stats by applyTask, so every executor — serial, pooled, sharded — accounts
// identically by construction.
type TaskStats struct {
	OCCandidates        int           `json:"ocCandidates,omitempty"`
	OFDCandidates       int           `json:"ofdCandidates,omitempty"`
	OCSkippedMinimality int           `json:"ocSkippedMinimality,omitempty"`
	OCSkippedConstancy  int           `json:"ocSkippedConstancy,omitempty"`
	OFDSkipped          int           `json:"ofdSkipped,omitempty"`
	OCSampledRejected   int           `json:"ocSampledRejected,omitempty"`
	ValidationTime      time.Duration `json:"validationNs,omitempty"`
	PartitionTime       time.Duration `json:"partitionNs,omitempty"`
}

// addTo folds the fragment into run-level stats.
func (ts *TaskStats) addTo(s *Stats) {
	s.OCCandidates += ts.OCCandidates
	s.OFDCandidates += ts.OFDCandidates
	s.OCSkippedMinimality += ts.OCSkippedMinimality
	s.OCSkippedConstancy += ts.OCSkippedConstancy
	s.OFDSkipped += ts.OFDSkipped
	s.OCSampledRejected += ts.OCSampledRejected
	s.ValidationTime += ts.ValidationTime
	s.PartitionTime += ts.PartitionTime
}

// NodeResult is the serializable outcome of executing one NodeTask: the
// verified dependencies in canonical in-node order, the new validity bits for
// downstream pruning, and the task's stats fragment. Applying results in
// node order reproduces the inline path's result and (non-timing) stats
// exactly, wherever the tasks actually ran.
type NodeResult struct {
	// Candidates is the number of candidates validated (the early-stop
	// currency of the level-wise framework).
	Candidates int `json:"candidates"`
	// NewConst marks attributes whose OFD was verified valid at this node.
	NewConst uint64    `json:"newConst,omitempty"`
	OCs      []TaskOC  `json:"ocs,omitempty"`
	OFDs     []TaskOFD `json:"ofds,omitempty"`
	Stats    TaskStats `json:"stats"`
}

// reset clears the result for reuse, keeping slice capacity — the inline path
// applies each node's result immediately, so one scratch NodeResult per
// engine serves every node allocation-free.
func (nr *NodeResult) reset() {
	nr.Candidates = 0
	nr.NewConst = 0
	nr.OCs = nr.OCs[:0]
	nr.OFDs = nr.OFDs[:0]
	nr.Stats = TaskStats{}
}

// Candidate search directions: ascending only, or both under Bidirectional.
var (
	dirAsc  = [...]bool{false}
	dirBoth = [...]bool{false, true}
)

// buildTask propagates validity state from the parents into the node (the
// coordinator-side half of node processing, which needs the whole previous
// level) and captures the node's work unit. The task's pair-set words alias
// the node's sets — free locally, copied only by serialization.
func buildTask(node *lattice.Node, parents *lattice.Level, numAttrs int, bidirectional bool) NodeTask {
	if bidirectional && node.OCValidDesc == nil {
		node.OCValidDesc = lattice.NewPairSet(numAttrs)
	}
	task := NodeTask{
		Set:         uint64(node.Set),
		Level:       node.Level,
		ParentConst: make([]uint64, node.Level),
	}
	var propagated lattice.AttrSet
	i := 0
	node.Set.ForEach(func(c int) {
		if p := parents.Lookup(node.Set.Remove(c)); p != nil {
			task.ParentConst[i] = uint64(p.ConstValid)
			propagated = propagated.Union(p.ConstValid)
			node.OCValid.UnionWith(p.OCValid)
			if node.OCValidDesc != nil && p.OCValidDesc != nil {
				node.OCValidDesc.UnionWith(p.OCValidDesc)
			}
		}
		i++
	})
	node.ConstValid = propagated
	task.ConstValid = uint64(propagated)
	task.OCValid = node.OCValid.Words()
	if node.OCValidDesc != nil {
		task.OCValidDesc = node.OCValidDesc.Words()
	}
	return task
}

// execTask examines all candidates hosted at the task's node — OFDs
// (Set\{D}): [] ↦ D for D ∈ Set, and OCs (Set\{A,B}): A ∼ B for pairs
// {A,B} ⊆ Set — reading pruning state from the task and writing verdicts
// into nr (reset first; callers that retain results across nodes pass a
// fresh one). It never mutates the task or any lattice state (each unordered
// pair and attribute is examined exactly once per node, so no candidate
// observes another's verdict within a node), which is what makes the work
// unit location-transparent: the same code runs inline on the coordinator,
// on the pool's runners, and in a remote shard's TaskRunner. Context
// partitions come from the traversal's memo.
func (e *engine) execTask(task *NodeTask, nr *NodeResult) {
	nr.reset()
	st := &nr.Stats
	set := lattice.AttrSet(task.Set)
	propagatedConst := lattice.AttrSet(task.ConstValid)
	attrs := set.Attrs()

	// --- OFD candidates. -------------------------------------------------
	for _, d := range attrs {
		if e.aborted() {
			return
		}
		if propagatedConst.Has(d) {
			// A strict sub-context already has a valid OFD for d: any OFD
			// here is valid but non-minimal. Skip validation entirely —
			// unless the pruning ablation wants the cost measured.
			st.OFDSkipped++
			if e.t.cfg.DisablePruning {
				ctx := e.t.memo.Partition(set.Remove(d), &st.PartitionTime)
				st.OFDCandidates++
				nr.Candidates++
				t0 := time.Now()
				e.validateOFD(ctx, e.t.tbl.Column(d))
				st.ValidationTime += time.Since(t0)
			}
			continue
		}
		ctx := e.t.memo.Partition(set.Remove(d), &st.PartitionTime)
		st.OFDCandidates++
		nr.Candidates++
		t0 := time.Now()
		r := e.validateOFD(ctx, e.t.tbl.Column(d))
		st.ValidationTime += time.Since(t0)
		if r.Valid {
			nr.NewConst |= 1 << uint(d)
			if e.t.cfg.IncludeOFDs {
				ofd := TaskOFD{A: d, Error: r.Error, Removals: r.Removals}
				if e.t.cfg.CollectRemovalSets {
					full := e.v.ApproxOFD(ctx, e.t.tbl.Column(d),
						validate.Options{Threshold: e.t.eps, CollectRemovals: true})
					ofd.RemovalRows = full.RemovalRows
				}
				nr.OFDs = append(nr.OFDs, ofd)
			}
		}
	}

	// --- OC candidates (levels >= 2). -------------------------------------
	if task.Level < 2 {
		return
	}
	directions := dirAsc[:]
	if e.t.cfg.Bidirectional {
		directions = dirBoth[:]
	}
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			a, b := attrs[i], attrs[j]
			for _, desc := range directions {
				if e.aborted() {
					return
				}
				validWords := task.OCValid
				if desc {
					validWords = task.OCValidDesc
				}
				skip := false
				if lattice.PairHas(validWords, a, b, e.t.numAttrs) {
					// Valid in a sub-context: non-minimal here and
					// everywhere above (minimality pruning).
					st.OCSkippedMinimality++
					skip = true
				} else {
					// ParentConst[j] is the parent missing b (it contains a),
					// ParentConst[i] the parent missing a.
					if lattice.AttrSet(task.ParentConst[j]).Has(a) ||
						lattice.AttrSet(task.ParentConst[i]).Has(b) {
						// Constancy of a side within the OC's context (or a
						// subset) trivializes the OC in both directions
						// (e_OC ≤ e_OFD); never minimal.
						st.OCSkippedConstancy++
						skip = true
					}
				}
				gpSet := set.Remove(a).Remove(b)
				if skip {
					if e.t.cfg.DisablePruning {
						ctx := e.t.memo.Partition(gpSet, &st.PartitionTime)
						st.OCCandidates++
						nr.Candidates++
						t0 := time.Now()
						e.validateOCVia(gpSet, ctx, a, b, desc)
						st.ValidationTime += time.Since(t0)
					}
					continue
				}
				ctx := e.t.memo.Partition(gpSet, &st.PartitionTime)
				st.OCCandidates++
				nr.Candidates++
				t0 := time.Now()
				if e.sampleRejects(ctx, a, b, desc) {
					st.OCSampledRejected++
					st.ValidationTime += time.Since(t0)
					continue
				}
				r := e.validateOCVia(gpSet, ctx, a, b, desc)
				st.ValidationTime += time.Since(t0)
				if r.Valid {
					oc := TaskOC{A: a, B: b, Descending: desc, Error: r.Error, Removals: r.Removals}
					if e.t.cfg.CollectRemovalSets {
						oc.RemovalRows = e.collectOCRemovals(ctx, a, b, desc)
					}
					nr.OCs = append(nr.OCs, oc)
				}
			}
		}
	}
}

// applyTask folds a task's result into the node's validity state and the
// engine's accumulated result. Called in deterministic node order by every
// executor, it is the single place discovered dependencies enter a Result —
// which is why sharded, pooled, and serial runs are byte-identical.
func (e *engine) applyTask(node *lattice.Node, task *NodeTask, nr *NodeResult) {
	st := &e.res.Stats
	nr.Stats.addTo(st)
	node.ConstValid = lattice.AttrSet(task.ConstValid | nr.NewConst)
	st.OFDsFoundPerLevel[node.Level] += bits.OnesCount64(nr.NewConst)
	set := lattice.AttrSet(task.Set)
	for i := range nr.OFDs {
		w := &nr.OFDs[i]
		e.res.OFDs = append(e.res.OFDs, OFD{
			Context:     set.Remove(w.A),
			A:           w.A,
			Error:       w.Error,
			Removals:    w.Removals,
			Level:       node.Level,
			Score:       Score(node.Level-1, w.Error),
			RemovalRows: w.RemovalRows,
		})
	}
	for i := range nr.OCs {
		w := &nr.OCs[i]
		if w.Descending {
			node.OCValidDesc.Add(w.A, w.B)
		} else {
			node.OCValid.Add(w.A, w.B)
		}
		st.OCsFoundPerLevel[node.Level]++
		e.res.OCs = append(e.res.OCs, OC{
			Context:     set.Remove(w.A).Remove(w.B),
			A:           w.A,
			B:           w.B,
			Descending:  w.Descending,
			Error:       w.Error,
			Removals:    w.Removals,
			Level:       node.Level,
			Score:       Score(node.Level-2, w.Error),
			RemovalRows: w.RemovalRows,
		})
	}
}
