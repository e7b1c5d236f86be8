package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false}, // rank 90, only 9 samples above
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as valid")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// stepClock is a fake load.Clock. Every sleep after the first waits until
// the operation dispatched before it has run, so the generator and the
// operations take turns and every clock reading is deterministic; an
// operation's running time stalls the generator, which makes later
// operations late.
type stepClock struct {
	mu    sync.Mutex
	now   time.Time
	ran   chan struct{}
	slept bool
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) SleepUntil(t time.Time) {
	if c.slept {
		<-c.ran
	}
	c.slept = true
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	clk := &stepClock{now: time.Unix(0, 0), ran: make(chan struct{}, 1)}
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	service := []time.Duration{25 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	lat := make([]time.Duration, len(offsets))
	// The first operation's 25 ms stalls the generator: the next two start
	// late and their latency counts the stall.
	late := openLoop(clk, offsets, func(i int, due time.Time) {
		clk.advance(service[i])
		lat[i] = clk.Now().Sub(due)
		clk.ran <- struct{}{}
	})
	wantLate := []time.Duration{0, 15 * time.Millisecond, 10 * time.Millisecond, 0}
	wantLat := []time.Duration{25 * time.Millisecond, 20 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond}
	for i := range offsets {
		if late[i] != wantLate[i] || lat[i] != wantLat[i] {
			t.Errorf("op %d: late %v latency %v; want %v %v", i, late[i], lat[i], wantLate[i], wantLat[i])
		}
	}
}

func TestTracedTurnCoversEveryTable(t *testing.T) {
	for _, cycle := range []int{1, 2, 3, 7} {
		traced, plain := make([]int, cycle), make([]int, cycle)
		for i := 0; i < 4*cycle; i++ {
			if tracedTurn(i, cycle) {
				traced[i%cycle]++
			} else {
				plain[i%cycle]++
			}
		}
		for k := range traced {
			if traced[k] != 2 || plain[k] != 2 {
				t.Errorf("cycle %d, table %d: %d traced and %d untraced jobs, want 2 and 2", cycle, k, traced[k], plain[k])
			}
		}
	}
}

func TestSelfTimesNestedSumToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: "aod", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: "core", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "g", Layer: "validate", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Layer: "partition", Start: 50, End: 100},
		{ID: 5, Parent: 4, Name: "late", Layer: "shard", Start: 90, End: 130}, // clipped to 90..100
	}
	got := selfTimes(spans)
	want := map[int64]float64{1: 20, 2: 20, 3: 10, 4: 40, 5: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimesSplitsConcurrentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Layer: "core", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc", Layer: "shard", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "rpc", Layer: "shard", Start: 40, End: 100},
	}
	got := selfTimes(spans)
	if got[1] != 0 || got[2] != 50 || got[3] != 50 {
		t.Errorf("self times = %v, want root 0 and 50 each", got)
	}
}

func TestReattachMovesPipelinedSlicesToTheirLevel(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pipeline", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "level", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "level", Start: 10, End: 60},
		{ID: 4, Parent: 2, Name: "rpc", Start: 12, End: 50}, // recorded under level 1
		{ID: 5, Parent: 2, Name: "rpc", Start: 2, End: 8},
	}
	out := reattach(spans)
	if out[3].Parent != 3 || out[4].Parent != 2 {
		t.Errorf("parents = %d, %d; want 3, 2", out[3].Parent, out[4].Parent)
	}
	if spans[3].Parent != 2 {
		t.Error("reattach modified its input")
	}
}

func TestRollupScalesWorkIntoContainingTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Layer: "aod", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "level", Layer: "core", Start: 0, End: 80},
	}
	// 60 + 60 ns of summed worker time in 80 ns of level time.
	got := rollup(spans, workSplit{from: "level", validate: 60, partitions: 60})
	if got["aod"] != 20 || got["core"] != 0 || got["validate"] != 40 || got["partition"] != 40 {
		t.Errorf("rollup = %v", got)
	}
	got = rollup(spans, workSplit{from: "level", validate: 50, partitions: 10})
	if got["core"] != 20 || got["validate"] != 50 || got["partition"] != 10 {
		t.Errorf("rollup = %v", got)
	}
	byLayer := map[string]float64{"core": 30, "validate": 70}
	chargeRuntime(byLayer, 10)
	if math.Abs(byLayer["core"]+byLayer["validate"]+byLayer["runtime"]-100) > 1e-9 || byLayer["runtime"] != 10 || byLayer["core"] != 27 {
		t.Errorf("chargeRuntime = %v", byLayer)
	}
}

func TestCompareFlagsCrossHost(t *testing.T) {
	h := host{NumCPU: 2, GOMAXPROCS: 2, CPU: "x", GoVersion: "go1.24.0", OS: "linux/amd64", Tree: "a"}
	old := record{Workload: "wide", Host: h, Metrics: metricSet{"job_p50_ms": {10, "ms"}}}
	cur := old
	cur.Host.Tree = "b" // other code, same host
	if lines := compareRecords(old, cur); lines[0] != "host: same" {
		t.Errorf("same host flagged: %q", lines[0])
	}
	cur.Host.NumCPU = 4
	if lines := compareRecords(old, cur); !strings.HasPrefix(lines[0], "CROSS-HOST") {
		t.Errorf("cross-host comparison not flagged: %q", lines[0])
	}
	cur.StealPct = 12
	if lines := compareRecords(old, cur); !strings.HasPrefix(lines[1], "NOISY HOST") {
		t.Errorf("stolen CPU time not flagged: %q", lines[1])
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	s := shape{"ncvoter", 300, 5, subSeed(7, 1)}
	a, err := s.csv()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.csv()
	if !bytes.Equal(a, b) {
		t.Error("same seed rendered different CSV bytes")
	}
	other, _ := shape{"ncvoter", 300, 5, subSeed(8, 1)}.csv()
	if bytes.Equal(a, other) {
		t.Error("different seeds rendered the same CSV bytes")
	}
	p1, err1 := plan(7, 3)
	p2, err2 := plan(7, 3)
	p3, err3 := plan(8, 3)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.Fatal(err)
	}
	if len(p1) == 0 || len(p1) != len(p2) || len(p1) == len(p3) && p1[0] == p3[0] {
		t.Fatalf("plans: %d %d %d ops", len(p1), len(p2), len(p3))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("plan differs at op %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workload {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
}

func TestProcessCPUCountsWork(t *testing.T) {
	c0, t0 := processCPU(), time.Now()
	x := 0
	for processCPU()-c0 < 20*time.Millisecond {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("10 s of spinning added under 20 ms of process CPU time")
		}
		for i := 0; i < 1e5; i++ {
			x += i
		}
	}
	// One spinning goroutine plus the runtime cannot use more than
	// GOMAXPROCS CPUs' worth of the wall time.
	if c, wall := processCPU()-c0, time.Since(t0); c > time.Duration(runtime.GOMAXPROCS(0))*wall+5*time.Millisecond {
		t.Fatalf("process CPU %v over wall %v (x=%d)", c, wall, x)
	}
}
