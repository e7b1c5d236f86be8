// Package validate implements the candidate-validation algorithms of the
// paper: exact order-compatibility (OC) and order-functional-dependency (OFD)
// checks, the quadratic iterative approximate-OC validator of Szlichta et al.
// that the paper improves upon (Algorithm 1), the paper's optimal LNDS-based
// validator (Algorithm 2, Theorems 3.3/3.4), the linear approximate-OFD
// validator of TANE [Huhtala et al. 1999], and the Section 3.3 extension to
// list-based approximate ODs.
//
// All validators take a context as a stripped partition (Π_X) plus
// rank-encoded columns; tuples in different context classes are independent
// (see the proof of Theorem 3.3), and stripped singleton classes can contain
// neither swaps nor splits, so operating on stripped partitions is exact.
//
// The hot path is allocation-free in steady state: per-class tuple orders
// come from an LSD radix sort over packed (A-rank, B-rank) keys held in
// Validator scratch (see radix.go), with a comparison sort below a small
// class-size cutoff. The verdict path — everything discovery asks per
// candidate — sorts bare keys and runs lis's budget-bounded, length-only
// LNDS over their B bits, stopping a rejected candidate at its first certain
// overrun (DESIGN.md §1). Only removal collection sorts (key, row) pairs and
// reconstructs the LNDS with a lis.Scratch.
package validate

import (
	"fmt"
	"math"
	"sync"

	"aod/internal/dataset"
	"aod/internal/lis"
	"aod/internal/partition"
)

// Options configures a validation call.
type Options struct {
	// Threshold is the approximation threshold ε ∈ [0, 1]: the candidate is
	// valid iff its approximation factor e = |minimal removal|/|r| ≤ ε.
	Threshold float64
	// CollectRemovals requests the removal-set row ids in Result.RemovalRows.
	CollectRemovals bool
	// ComputeFullError forces computation of the exact approximation factor
	// even after the threshold is exceeded (no early abort). The iterative
	// algorithm's "INVALID" early exit (Algorithm 1 line 14) is faithful to
	// the paper when this is false.
	ComputeFullError bool
}

// Result reports the outcome of validating one candidate.
type Result struct {
	// Valid is whether e ≤ ε.
	Valid bool
	// Removals is the size of the removal set found. For the optimal
	// validator this is the minimal removal set size; for the iterative one
	// it may overestimate. If the validator aborted early (threshold crossed
	// and !ComputeFullError), Removals is only a certificate of rejection:
	// it exceeds the budget ⌊ε·|r|⌋ and is at most the optimal validators'
	// true minimum.
	Removals int
	// Error is Removals/|r| (the approximation factor e, or its lower bound
	// after an early abort).
	Error float64
	// Aborted reports that validation stopped as soon as the threshold was
	// exceeded, so Removals/Error are lower bounds.
	Aborted bool
	// RemovalRows holds the rows of the removal set when requested and the
	// validation ran to completion.
	RemovalRows []int32
}

// removalBudget is the largest removal count still within the threshold,
// consistent with finish()'s validity test (the small epsilon absorbs float
// artifacts like 4.0/9*9 = 3.999…).
func removalBudget(threshold float64, n int) int {
	return int(math.Floor(threshold*float64(n) + 1e-9))
}

func finish(removals int, n int, opts Options, aborted bool, rows []int32) Result {
	e := float64(removals) / float64(n)
	return Result{
		Valid:       !aborted && e <= opts.Threshold+1e-12,
		Removals:    removals,
		Error:       e,
		Aborted:     aborted,
		RemovalRows: rows,
	}
}

// Validator holds reusable scratch buffers so discovery loops do not
// reallocate per candidate. A zero Validator is ready to use. Validators are
// not safe for concurrent use.
type Validator struct {
	// a, b, rows are the per-position projections of the current class in
	// sorted order (see sortClass).
	a, b []int32
	rows []int32
	// kv, kvTmp are the radix-sort (key, row) buffers of removal
	// collection; keys, keysTmp the bare-key buffers of the verdict path
	// (radix.go).
	kv, kvTmp     []pairKV
	keys, keysTmp []uint64
	freq          []int32
	scan          scanScratch
	lnds          lis.Scratch
	// inv and alive are the iterative validator's per-class scratch: swap
	// counts (Fenwick-backed) and the greedy removal's liveness markers.
	inv   lis.InvScratch
	alive []bool
}

// New returns a Validator with empty scratch space.
func New() *Validator { return &Validator{} }

// ExactOC verifies the exact canonical OC X: A ∼ B (Def. 2.10) over the
// context partition ctx. It returns whether the OC holds and, when it does
// not, one witness swap (a pair of row ids violating Def. 2.5). Runtime is
// O(‖ctx‖ log m) from sorting within classes.
func (v *Validator) ExactOC(ctx *partition.Stripped, a, b *dataset.Column) (holds bool, witness [2]int32) {
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		v.sortClass(ctx.Class(ci), ra, rb, false, 0)
		// Swap exists iff some element's B is below the running max-B of all
		// strictly earlier A groups.
		maxPrev := int32(-1)     // max B over strictly earlier A-groups
		maxPrevRow := int32(-1)  // a row attaining it
		groupMax := int32(-1)    // max B within the current A-group
		groupMaxRow := int32(-1) // a row attaining it
		groupStartA := int32(-1)
		for i := range v.a {
			if v.a[i] != groupStartA {
				if groupMax > maxPrev {
					maxPrev, maxPrevRow = groupMax, groupMaxRow
				}
				groupStartA = v.a[i]
				groupMax, groupMaxRow = -1, -1
			}
			if v.b[i] < maxPrev {
				return false, [2]int32{maxPrevRow, v.rows[i]}
			}
			if v.b[i] > groupMax {
				groupMax, groupMaxRow = v.b[i], v.rows[i]
			}
		}
	}
	return true, [2]int32{-1, -1}
}

// collectRemoved appends the rows outside keep (ascending positions into the
// sorted class) to removed.
func (v *Validator) collectRemoved(m int, keep []int32, removed []int32) []int32 {
	k := 0
	for i := 0; i < m; i++ {
		if k < len(keep) && int(keep[k]) == i {
			k++
			continue
		}
		removed = append(removed, v.rows[i])
	}
	return removed
}

// OptimalAOC is Algorithm 2 of the paper: validate the approximate canonical
// OC X: A ∼ B in O(n log n) with a guaranteed-minimal removal set
// (Theorem 3.3). Per context class, tuples are ordered by [A asc, B asc] and
// the tuples outside one longest non-decreasing subsequence of the
// B-projection form the class's minimal removal set.
func (v *Validator) OptimalAOC(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	return v.optimal(ctx, a.Ranks(), b.Ranks(), false, 0, opts)
}

// OptimalAOD validates the approximate canonical OD X: A ↦ B (Section 3.3
// extension): tuples are ordered by A ascending with ties broken by B
// *descending*, which forces the LNDS solution to remove all splits as well
// as all swaps. The removal set remains minimal.
func (v *Validator) OptimalAOD(ctx *partition.Stripped, a, b *dataset.Column, opts Options) Result {
	return v.optimal(ctx, a.Ranks(), b.Ranks(), true, int32(b.NumDistinct()-1), opts)
}

// optimal runs Algorithm 2 over class orders [A asc, B asc], or
// [A asc, B desc] when bDesc (flip is the B-key reflection base).
//
// Only removal collection needs row ids: it sorts (key, row) pairs and
// reconstructs each class's LNDS. The verdict path sorts bare keys and asks
// the length-only kernel whether the class fits in what is left of the
// budget; the first class that does not ends the run (see Result.Removals).
func (v *Validator) optimal(ctx *partition.Stripped, ra, rb []int32, bDesc bool, flip int32, opts Options) Result {
	n := ctx.N
	removals := 0
	if opts.CollectRemovals {
		var removed []int32
		for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
			cls := ctx.Class(ci)
			v.sortClass(cls, ra, rb, bDesc, flip)
			keep := v.lnds.LNDS(v.b)
			removals += len(cls) - len(keep)
			removed = v.collectRemoved(len(cls), keep, removed)
		}
		return finish(removals, n, opts, false, removed)
	}
	budget := removalBudget(opts.Threshold, n)
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		limit := budget - removals
		if opts.ComputeFullError {
			limit = len(cls)
		}
		kept, ok := v.lnds.KeysLNDSLenWithin(v.sortKeys(cls, 1, ra, rb, bDesc, flip), bDesc, limit)
		if !ok {
			// The class needs more than limit removals, so the total
			// certainly exceeds the budget; budget+1 is a lower bound.
			return finish(max(removals, budget+1), n, opts, true, nil)
		}
		removals += len(cls) - kept
	}
	return finish(removals, n, opts, false, nil)
}

// SampledAOCEstimate cheaply estimates the approximation factor of the AOC
// X: A ∼ B by running the optimal validator on every stride-th tuple of each
// context class. Because any removal set for the full class restricts to a
// removal set for the sample, the estimate is (in expectation) a slight
// underestimate of the true factor; discovery uses it as a pre-filter in the
// hybrid-sampling mode inspired by Papenbrock & Naumann's hybrid FD
// discovery (reference [6], the paper's future-work direction), always
// confirming acceptances with a full validation.
//
// It returns the estimated approximation factor and the number of sampled
// tuples (0 when stride produces an empty sample, in which case the estimate
// is 0).
func (v *Validator) SampledAOCEstimate(ctx *partition.Stripped, a, b *dataset.Column, stride int) (float64, int) {
	if stride < 1 {
		stride = 1
	}
	ra, rb := a.Ranks(), b.Ranks()
	removals, sampled := 0, 0
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		keys := v.sortKeys(ctx.Class(ci), stride, ra, rb, false, 0)
		kept, _ := v.lnds.KeysLNDSLenWithin(keys, false, len(keys))
		removals += len(keys) - kept
		sampled += len(keys)
	}
	// Singleton-stripped rows are swap-free; scale the denominator the same
	// way the full validator does (per-table rows), approximated by the
	// sampled fraction of the table.
	denom := sampled + (ctx.N-ctx.Size()+stride-1)/stride
	if denom == 0 {
		return 0, 0
	}
	return float64(removals) / float64(denom), sampled
}

// ExactOFD verifies the exact OFD X: [] ↦ A (Def. 2.11): A must be constant
// within every class of the context partition. Runtime O(‖ctx‖).
func ExactOFD(ctx *partition.Stripped, a *dataset.Column) bool {
	ra := a.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		first := ra[cls[0]]
		for _, row := range cls[1:] {
			if ra[row] != first {
				return false
			}
		}
	}
	return true
}

// ApproxOFD validates the approximate OFD X: [] ↦ A using the linear-time g3
// measure of [Huhtala et al. 1999] (reference [3] of the paper): within each
// context class keep the most frequent A-value and remove the rest; the total
// removed over all classes is the (minimal) removal-set size.
func ApproxOFD(ctx *partition.Stripped, a *dataset.Column, opts Options) Result {
	return New().ApproxOFD(ctx, a, opts)
}

// ofdChunk is how many rows of a class ApproxOFD counts between budget
// checks.
const ofdChunk = 1024

// ApproxOFD is the scratch-reusing form of the package-level ApproxOFD: the
// per-value frequency array is kept across calls so discovery loops do not
// allocate per candidate. Without CollectRemovals or ComputeFullError it
// stops as soon as the removals are certain to exceed the budget: after
// seeing `seen` rows of a class whose most frequent A-value so far occurs
// best times, the class needs at least seen − best removals.
func (v *Validator) ApproxOFD(ctx *partition.Stripped, a *dataset.Column, opts Options) Result {
	n := ctx.N
	ra := a.Ranks()
	budget := removalBudget(opts.Threshold, n)
	bounded := !opts.CollectRemovals && !opts.ComputeFullError
	removals := 0
	var removed []int32
	if cap(v.freq) < a.NumDistinct() {
		v.freq = make([]int32, a.NumDistinct())
	}
	freq := v.freq[:a.NumDistinct()]
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		var best int32
		var bestRank int32 = -1
		for seen := 0; seen < len(cls); {
			end := min(seen+ofdChunk, len(cls))
			for _, row := range cls[seen:end] {
				r := ra[row]
				freq[r]++
				if freq[r] > best {
					best, bestRank = freq[r], r
				}
			}
			seen = end
			if bounded && removals+seen-int(best) > budget {
				resetFreq(freq, cls[:seen], ra)
				return finish(removals+seen-int(best), n, opts, true, nil)
			}
		}
		removals += len(cls) - int(best)
		if opts.CollectRemovals {
			for _, row := range cls {
				if ra[row] != bestRank {
					removed = append(removed, row)
				}
			}
		}
		resetFreq(freq, cls, ra)
	}
	return finish(removals, n, opts, false, removed)
}

// resetFreq zeroes only the counters the rows touched.
func resetFreq(freq, rows, ra []int32) {
	for _, row := range rows {
		freq[ra[row]] = 0
	}
}

// deadPool recycles the removed-row markers of the Verify helpers, so the
// quadratic diagnostics mark removals in a flat []bool instead of allocating
// a map per call.
var deadPool = sync.Pool{New: func() any { return new([]bool) }}

// acquireDead returns a length-n marker with removed rows set. Row ids
// outside [0, n) are ignored, matching the old map probe's tolerance of
// foreign ids. Release with releaseDead so the cleared buffer can be reused.
func acquireDead(n int, removed []int32) *[]bool {
	dp := deadPool.Get().(*[]bool)
	if cap(*dp) < n {
		*dp = make([]bool, n)
	}
	*dp = (*dp)[:n]
	for _, r := range removed {
		if r >= 0 && int(r) < n {
			(*dp)[r] = true
		}
	}
	return dp
}

func releaseDead(dp *[]bool, removed []int32) {
	for _, r := range removed {
		if r >= 0 && int(r) < len(*dp) {
			(*dp)[r] = false
		}
	}
	deadPool.Put(dp)
}

// VerifyNoSwaps is a test/diagnostic helper: it re-checks from first
// principles that, after deleting the rows in removed, no swap with respect
// to X: A ∼ B remains. It is quadratic and intended for small inputs.
func VerifyNoSwaps(ctx *partition.Stripped, a, b *dataset.Column, removed []int32) error {
	dp := acquireDead(ctx.N, removed)
	defer releaseDead(dp, removed)
	dead := *dp
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		for i := 0; i < len(cls); i++ {
			if dead[cls[i]] {
				continue
			}
			for j := i + 1; j < len(cls); j++ {
				if dead[cls[j]] {
					continue
				}
				s, t := cls[i], cls[j]
				if (ra[s] < ra[t] && rb[t] < rb[s]) || (ra[t] < ra[s] && rb[s] < rb[t]) {
					return fmt.Errorf("swap remains between rows %d and %d", s, t)
				}
			}
		}
	}
	return nil
}

// VerifyNoSwapsOrSplits re-checks that after deleting the rows in removed,
// the canonical OD X: A ↦ B holds (no swaps and no splits). Quadratic;
// diagnostics only.
func VerifyNoSwapsOrSplits(ctx *partition.Stripped, a, b *dataset.Column, removed []int32) error {
	if err := VerifyNoSwaps(ctx, a, b, removed); err != nil {
		return err
	}
	dp := acquireDead(ctx.N, removed)
	defer releaseDead(dp, removed)
	dead := *dp
	ra, rb := a.Ranks(), b.Ranks()
	for ci, nc := 0, ctx.NumClasses(); ci < nc; ci++ {
		cls := ctx.Class(ci)
		for i := 0; i < len(cls); i++ {
			if dead[cls[i]] {
				continue
			}
			for j := i + 1; j < len(cls); j++ {
				if dead[cls[j]] {
					continue
				}
				s, t := cls[i], cls[j]
				if ra[s] == ra[t] && rb[s] != rb[t] {
					return fmt.Errorf("split remains between rows %d and %d", s, t)
				}
			}
		}
	}
	return nil
}
