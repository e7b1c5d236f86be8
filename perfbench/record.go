package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"aod"
)

// recorder collects what one measured phase observed. Safe for concurrent
// use by the service workload's request goroutines.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // class → latency samples, ms
	attempted int
	failed    int
	failures  []string // the first few failure messages

	jobs jobTotals

	// Traced jobs: per-layer self time and wall time, summed (ns).
	layerNs   map[string]float64
	tracedNs  float64
	tracedN   int
	tracedLat []float64 // ms, jobs run with tracing on
	plainLat  []float64 // ms, interleaved jobs run with tracing off
}

// jobTotals sums the program's own statistics over measured jobs.
type jobTotals struct {
	n          int
	wall       time.Duration // facade wall time
	total      time.Duration // Stats.TotalTime
	valid      time.Duration
	part       time.Duration
	nodes      int
	candidates int
	found      int
	candRows   float64 // Σ candidates × rows
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), layerNs: make(map[string]float64)}
}

// op records one operation of a class: its latency, or its failure.
func (r *recorder) op(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	r.lat[class] = append(r.lat[class], ms(d))
}

// cpu records the process CPU time one successful operation of a class
// used, under "<class>_cpu".
func (r *recorder) cpu(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[class+"_cpu"] = append(r.lat[class+"_cpu"], ms(d))
}

// check records a correctness check that is not an operation of its own
// (reference oracle, rollup sum, shard health): it counts toward attempted
// and, when it fails, toward failed.
func (r *recorder) check(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

// job adds a completed discovery's statistics; wall is the facade call's
// duration (0 when unknown).
func (r *recorder) job(rep *aod.Report, wall time.Duration) {
	st := rep.Stats
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.jobs
	t.n++
	t.wall += wall
	t.total += st.TotalTime
	t.valid += st.ValidationTime
	t.part += st.PartitionTime
	t.nodes += st.NodesProcessed
	cands := st.OCCandidates + st.OFDCandidates
	t.candidates += cands
	t.found += len(rep.OCs) + len(rep.OFDs)
	t.candRows += float64(cands) * float64(st.Rows)
}

// traced adds one traced job's layer rollup.
func (r *recorder) traced(byLayer map[string]float64, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for l, v := range byLayer {
		r.layerNs[l] += v
	}
	r.tracedNs += float64(wall)
	r.tracedN++
	r.tracedLat = append(r.tracedLat, ms(wall))
}

// plain adds the latency of a job run untraced in a traced phase.
func (r *recorder) plain(wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plainLat = append(r.plainLat, ms(wall))
}

// runtimeStats is what the Go runtime did during a phase.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint32
	pauseNs    uint64
	livePeak   uint64 // max of /gc/heap/live:bytes
	wall       time.Duration
}

// runtimeProbe samples the runtime across a phase: counters at both ends,
// and the live heap every few milliseconds in between.
type runtimeProbe struct {
	start    runtime.MemStats
	began    time.Time
	stop     chan struct{}
	done     chan struct{}
	livePeak uint64
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.start)
	p.began = time.Now()
	go p.sample()
	return p
}

func (p *runtimeProbe) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			p.livePeak = max(p.livePeak, s[0].Value.Uint64())
		}
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// end stops the sampler and returns the phase's runtime statistics.
func (p *runtimeProbe) end() runtimeStats {
	close(p.stop)
	<-p.done
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeStats{
		allocBytes: m.TotalAlloc - p.start.TotalAlloc,
		gcCycles:   m.NumGC - p.start.NumGC,
		pauseNs:    m.PauseTotalNs - p.start.PauseTotalNs,
		livePeak:   p.livePeak,
		wall:       time.Since(p.began),
	}
}
