package core

import (
	"context"
	"testing"

	"aod/internal/gen"
)

// TestDiscoverAllocBudget pins the end-to-end allocation budget of a small
// discovery run. The partition arena, CSR layout, radix sort, and validator
// scratch put the steady-state per-candidate cost at zero, so what remains
// is per-run setup (table partitions, lattice levels, result assembly) —
// this pin keeps future changes from silently reintroducing per-node or
// per-candidate garbage (the pre-CSR engine allocated ~30× more here).
func TestDiscoverAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful with -short")
	}
	tbl := gen.Flight(gen.FlightConfig{Rows: 500, Attrs: 6, Seed: 42})
	cfg := Config{Threshold: 0.10, Validator: ValidatorOptimal}
	if _, err := Discover(tbl, cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := Discover(tbl, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Discover allocations per run: %.0f", got)
	// Measured 420 (>12000 pre-CSR); the slack absorbs runtime-version
	// noise without letting per-node garbage back in.
	const budget = 600
	if got > budget {
		t.Errorf("Discover allocates %.0f times per run, budget %d", got, budget)
	}
}

// TestPoolAllocBudget is TestDiscoverAllocBudget for Pool(2): the same run
// through the dispatcher's in-process runners, which must not bring back
// per-node or per-candidate garbage either (per-slice task copies and result
// slots are the expected extra).
func TestPoolAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin is not meaningful with -short")
	}
	tbl := gen.Flight(gen.FlightConfig{Rows: 500, Attrs: 6, Seed: 42})
	cfg := Config{Threshold: 0.10, Validator: ValidatorOptimal}
	run := func() {
		if _, err := (Pipeline{Executor: Pool(2)}).Run(context.Background(), tbl, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	got := testing.AllocsPerRun(5, run)
	t.Logf("Pool(2) allocations per run: %.0f", got)
	// Measured 721; as in the serial pin, the slack absorbs runtime-version
	// noise.
	const budget = 1200
	if got > budget {
		t.Errorf("Pool(2) allocates %.0f times per run, budget %d", got, budget)
	}
}
