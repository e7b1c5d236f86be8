package validate

import (
	"fmt"
	"math/rand"
	"testing"

	"aod/internal/dataset"
	"aod/internal/partition"
)

// tiedColumns builds two columns over rows with values drawn from small
// domains, so both (A, B) ties and A-ties with differing B are common.
func tiedColumns(rng *rand.Rand, rows int) (a, b *dataset.Column) {
	bld := dataset.NewBuilder()
	for c := 0; c < 2; c++ {
		vals := make([]int64, rows)
		dom := 2 + rng.Intn(rows/4+2)
		for i := range vals {
			vals[i] = int64(rng.Intn(dom))
		}
		bld.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := bld.Build()
	if err != nil {
		panic(err)
	}
	return tbl.Column(0), tbl.Column(1)
}

// classesOf partitions consecutive rows into classes of the given sizes,
// followed by the given number of stripped singleton rows.
func classesOf(singletons int, sizes ...int) *partition.Stripped {
	var classes [][]int32
	row := int32(0)
	for _, m := range sizes {
		cls := make([]int32, m)
		for i := range cls {
			cls[i] = row
			row++
		}
		classes = append(classes, cls)
	}
	return partition.FromClasses(int(row)+singletons, classes)
}

// checkVerdict compares one verdict-path result with the true minimum
// removals at the same threshold: same validity, and an abort only with a
// Removals that certifies the rejection without exceeding the minimum.
func checkVerdict(t *testing.T, what string, got Result, minimum, n int, eps float64) {
	t.Helper()
	budget := removalBudget(eps, n)
	if got.Valid != (minimum <= budget) {
		t.Fatalf("%s ε=%g: Valid = %v, minimum %d, budget %d", what, eps, got.Valid, minimum, budget)
	}
	if got.Aborted {
		if got.Removals <= budget || got.Removals > minimum {
			t.Fatalf("%s ε=%g: aborted with Removals %d, want in (%d, %d]", what, eps, got.Removals, budget, minimum)
		}
		if got.Error != float64(got.Removals)/float64(n) {
			t.Fatalf("%s ε=%g: Error %g does not match Removals %d", what, eps, got.Error, got.Removals)
		}
		return
	}
	if got.Removals != minimum {
		t.Fatalf("%s ε=%g: completed with Removals %d, minimum %d", what, eps, got.Removals, minimum)
	}
}

// verdictThresholds are the thresholds that straddle a minimum: exactly on
// it, one row below, and the extremes.
func verdictThresholds(minimum, n int) []float64 {
	return []float64{0, float64(minimum) / float64(n), float64(minimum-1) / float64(n), 0.1, 1}
}

// TestVerdictPathMatchesRemovalPath differentially tests the bare-key,
// budget-bounded verdict path of OptimalAOC/OptimalAOD against the row-
// tagged CollectRemovals path, on classes on both sides of radixCutoff and
// one large class, for B as given and flipped (descending column).
func TestVerdictPathMatchesRemovalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	v := New()
	shapes := [][]int{
		{radixCutoff - 1}, {radixCutoff}, {radixCutoff + 1}, {10_000},
		{radixCutoff - 1, radixCutoff, radixCutoff + 1, 3, 2},
	}
	for _, sizes := range shapes {
		for rep := 0; rep < 6; rep++ {
			ctx := classesOf(rng.Intn(5), sizes...)
			n := ctx.N
			a, b := tiedColumns(rng, n)
			for _, bcol := range []*dataset.Column{b, b.Reversed()} {
				for _, kind := range []string{"AOC", "AOD"} {
					run := v.OptimalAOC
					if kind == "AOD" {
						run = v.OptimalAOD
					}
					what := fmt.Sprintf("%s sizes %v rep %d", kind, sizes, rep)
					want := run(ctx, a, bcol, Options{Threshold: 1, CollectRemovals: true})
					full := run(ctx, a, bcol, Options{ComputeFullError: true})
					if full.Removals != want.Removals || full.Aborted {
						t.Fatalf("%s: full verdict %d removals (aborted %v), removal path %d",
							what, full.Removals, full.Aborted, want.Removals)
					}
					for _, eps := range verdictThresholds(want.Removals, n) {
						checkVerdict(t, what, run(ctx, a, bcol, Options{Threshold: eps}), want.Removals, n, eps)
					}
				}
			}
		}
	}
}

// TestApproxOFDBudgetAbortMatchesFull differentially tests the budget-
// checked ApproxOFD against a full run, on classes smaller and larger than
// ofdChunk, and checks the abort leaves the frequency scratch clean.
func TestApproxOFDBudgetAbortMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	v := New()
	for _, sizes := range [][]int{{5}, {ofdChunk - 1, ofdChunk + 1}, {3 * ofdChunk}, {40, 2, 7, 2 * ofdChunk}} {
		for rep := 0; rep < 8; rep++ {
			ctx := classesOf(rng.Intn(5), sizes...)
			n := ctx.N
			a, _ := tiedColumns(rng, n)
			what := fmt.Sprintf("OFD sizes %v rep %d", sizes, rep)
			full := v.ApproxOFD(ctx, a, Options{ComputeFullError: true})
			if want := ApproxOFD(ctx, a, Options{Threshold: 1, CollectRemovals: true}); want.Removals != full.Removals {
				t.Fatalf("%s: full %d removals, removal path %d", what, full.Removals, want.Removals)
			}
			for _, eps := range verdictThresholds(full.Removals, n) {
				checkVerdict(t, what, v.ApproxOFD(ctx, a, Options{Threshold: eps}), full.Removals, n, eps)
				for r, c := range v.freq {
					if c != 0 {
						t.Fatalf("%s ε=%g: freq[%d] = %d left behind", what, eps, r, c)
					}
				}
			}
		}
	}
}
