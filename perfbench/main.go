// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads, from library calls to the HTTP service, checks every
// result it times, and prints one JSON line with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). See README.md.
//
//	perfbench --workload wide --seed 1 --seconds 20 --trace 0
//	perfbench compare OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// metricDef names a metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported for every workload.
// Times are process CPU time, which leaves out what the hypervisor steals
// (README.md, "Steadiness and bounds"); wall-clock latency and throughput
// are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_cpu_p50_ms", "ms"},
	{"job_cpu_p90_ms", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"live_heap_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of them;
// a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"pool_job_p50_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"upload_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"aod.report_ms", "ms"},
	{"core.planner_self_ms", "ms"},
	{"core.nodes_per_job", "count"},
	{"core.candidates_per_job", "count"},
	{"core.found_per_candidate", "ratio"},
	{"core.prepare_ms", "ms"},
	{"validate.ms_per_job", "ms"},
	{"validate.ns_per_candidate_row", "ns"},
	{"validate.optimal_aoc_ms", "ms"},
	{"partition.ms_per_job", "ms"},
	{"partition.product_ms", "ms"},
	{"dataset.parse_ms_per_mb", "ms/MB"},
	{"dataset.fingerprint_ms", "ms"},
	{"store.add_ms", "ms"},
	{"store.writes_per_commit", "ratio"},
	{"shard.bytes_per_job", "B"},
	{"shard.frames_per_job", "count"},
	{"shard.partition_bytes_per_job", "B"},
	{"shard.rpc_p50_ms", "ms"},
	{"shard.tax_ms", "ms"},
	{"shard.retries", "count"},
	{"shard.redispatches", "count"},
	{"shard.worker_failures", "count"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.cache_lookup_ms", "ms"},
	{"service.http_ms.upload", "ms"},
	{"service.http_ms.hit", "ms"},
	{"service.http_ms.job", "ms"},
	{"service.result_cache_hit_ratio", "ratio"},
	{"service.partition_cache_hit_ratio", "ratio"},
	{"service.validation_ms_per_job", "ms"},
	{"service.routed.serial", "count"},
	{"service.routed.pool", "count"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_ms_per_job", "ms"},
	{"telemetry.overhead_pct", "%"},
	{"layer.job_ms", "ms"},
	{"layer.aod_ms", "ms"},
	{"layer.core_ms", "ms"},
	{"layer.partition_ms", "ms"},
	{"layer.validate_ms", "ms"},
	{"layer.dataset_ms", "ms"},
	{"layer.store_ms", "ms"},
	{"layer.service_ms", "ms"},
	{"layer.shard_ms", "ms"},
	{"layer.runtime_ms", "ms"},
}

// workloads are the benchmark's workloads; README.md says why each exists.
var workloads = []string{"wide", "tall", "fanout", "service"}

// closedShare is the share of the measured seconds, 1/closedShare, that the
// service workload adds after its open loop for its closed loop.
const closedShare = 4

// setupRounds is how many times a run sets its workload up; setup_s is the
// median of their CPU times.
const setupRounds = 3

// record is the full result of one run, written beside the JSON line.
type record struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       bool           `json:"trace"`
	Host        host           `json:"host"`
	InputDigest string         `json:"inputDigest"`
	SetupS      []float64      `json:"setupSeconds"`    // wall
	SetupCPUS   []float64      `json:"setupCPUSeconds"` // process CPU
	Samples     map[string]int `json:"samples"`
	Undersample []string       `json:"undersampled,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
	// StealPct is the host CPU time stolen by the hypervisor during the
	// measured phase (-1 unknown). Timings of a run with a high share are
	// inflated by the host, not the code.
	StealPct  float64   `json:"stealPct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: wide, tall, fanout or service")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for full records, spans and service state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (wide|tall|fanout|service), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	rec, spans, err := measure(*name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeFiles(*out, rec, spans); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printSummary(stdout, rec)
	res := result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metricSet{}}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: rec.Metrics[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// instance is one set-up workload.
type instance interface {
	inputDigest() string
	close()
}

func setup(name string, seed int64, seconds int, procs int, out string) (instance, error) {
	switch name {
	case "wide":
		return setupLib(wideShapes(seed), procs, false)
	case "tall":
		return setupLib(tallShapes(seed), procs, false)
	case "fanout":
		return setupLib(fanoutShapes(seed), procs, true)
	default:
		return setupService(seed, float64(seconds), procs, filepath.Join(out, "tmp"))
	}
}

// measure sets the workload up setupRounds times (keeping the last), runs
// the phase and derives the metrics.
func measure(name string, seed int64, seconds int, traced bool, out string) (*record, []span, error) {
	procs := runtime.GOMAXPROCS(0)
	rec := &record{Workload: name, Seed: seed, Seconds: seconds, Trace: traced, Host: stampHost("."), Metrics: metricSet{}, Samples: map[string]int{}}
	r := newRecorder()
	var inst instance
	for i := 0; i < setupRounds; i++ {
		runtime.GC() // each round starts from the same heap
		c0 := processCPU()
		t0 := time.Now()
		in, err := setup(name, seed, seconds, procs, out)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up of %s: %w", name, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
		rec.SetupCPUS = append(rec.SetupCPUS, (processCPU() - c0).Seconds())
		if inst != nil {
			var err error
			if in.inputDigest() != inst.inputDigest() {
				err = fmt.Errorf("inputs differ between set-ups of seed %d", seed)
			}
			r.check("input determinism", err)
			inst.close()
		}
		inst = in
	}
	defer inst.close()
	rec.InputDigest = inst.inputDigest()
	r.check("reference oracle", referenceCheck(seed))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	runtime.GC()
	steal := startSteal()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	m := rec.Metrics
	// loop is the runtime's view of the phase that holds the timed jobs;
	// cost that of the phase whose costJobs the per-job costs divide over.
	var loop, cost runtimeStats
	var costJobs int
	switch w := inst.(type) {
	case *libRun:
		before := w.shardCounters()
		probe := startRuntimeProbe()
		w.run(context.Background(), deadline, r, tr)
		loop = probe.end()
		cost, costJobs = loop, len(r.lat["job"])
		if w.pool != nil {
			shardMetrics(w.shardCounters(), before, r, m)
		}
		if traced {
			var csvs [][]byte
			for _, t := range w.tables {
				csvs = append(csvs, t.csv)
			}
			if err := probeTables(csvs, m); err != nil {
				return nil, nil, err
			}
		}
	case *svcRun:
		probe := startRuntimeProbe()
		ph := w.run(r, tr)
		loop = probe.end()
		probe = startRuntimeProbe()
		costJobs = w.closedLoop(r, time.Duration(seconds)*time.Second/closedShare)
		cost = probe.end()
		cost.livePeak = max(cost.livePeak, loop.livePeak)
		svcMetrics(ph, m)
		rec.Notes = append(rec.Notes, w.zipfHead())
		if traced {
			if err := w.probe(r, m); err != nil {
				return nil, nil, err
			}
		}
	}
	rec.StealPct = steal.pct()
	m.set("setup_s", median(rec.SetupCPUS), "s")
	jobMetrics(r, cost, costJobs, rec)
	if traced {
		layerMetrics(r, loop, m)
	}
	for class, xs := range r.lat {
		rec.Samples[class] = len(xs)
	}
	rec.Attempted, rec.Failed, rec.Failures = r.attempted, r.failed, r.failures
	var spans []span
	if tr != nil {
		spans = tr.all()
	}
	return rec, spans, nil
}

// jobMetrics derives the latency metrics of every class, and the
// throughput and per-job costs of the jobs phase cost ran.
func jobMetrics(r *recorder, cost runtimeStats, costJobs int, rec *record) {
	m := rec.Metrics
	pct := func(name, class string, p float64) {
		v, ok := percentile(r.lat[class], p)
		if !ok && len(r.lat[class]) > 0 {
			rec.Undersample = append(rec.Undersample, fmt.Sprintf("%s: %d samples", name, len(r.lat[class])))
		}
		m.set(name, v, "ms")
	}
	pct("job_cpu_p50_ms", "job_cpu", 0.5)
	pct("job_cpu_p90_ms", "job_cpu", 0.9)
	pct("job_p50_ms", "job", 0.5)
	pct("job_p90_ms", "job", 0.9)
	if len(r.lat["pool"]) > 0 {
		pct("pool_job_p50_ms", "pool", 0.5)
		m.set("shard.tax_ms", m["job_p50_ms"].Value-m["pool_job_p50_ms"].Value, "ms")
	}
	if len(r.lat["upload"]) > 0 {
		pct("upload_p50_ms", "upload", 0.5)
		pct("upload_p90_ms", "upload", 0.9)
	}
	if len(r.lat["hit"]) > 0 {
		pct("hit_p50_ms", "hit", 0.5)
		pct("hit_p90_ms", "hit", 0.9)
	}
	jobs := float64(costJobs)
	m.set("jobs_per_s", jobs/cost.wall.Seconds(), "1/s")
	m.set("alloc_mb_per_job", ratio(float64(cost.allocBytes)/1e6, jobs), "MB")
	m.set("live_heap_peak_mb", float64(cost.livePeak)/1e6, "MB")
	m.set("runtime.gc_cycles_per_job", ratio(float64(cost.gcCycles), jobs), "count")
	m.set("runtime.gc_pause_ms_per_job", ratio(ms(time.Duration(cost.pauseNs)), jobs), "ms")
	m.set("error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio")
}

// layerMetrics derives the per-layer metrics of the program's statistics
// and the traced jobs' span rollup.
func layerMetrics(r *recorder, rs runtimeStats, m metricSet) {
	t := r.jobs
	n := float64(t.n)
	m.set("core.planner_self_ms", ratio(ms(t.total-t.valid-t.part), n), "ms")
	m.set("core.nodes_per_job", ratio(float64(t.nodes), n), "count")
	m.set("core.candidates_per_job", ratio(float64(t.candidates), n), "count")
	m.set("core.found_per_candidate", ratio(float64(t.found), float64(t.candidates)), "ratio")
	m.set("validate.ms_per_job", ratio(ms(t.valid), n), "ms")
	m.set("validate.ns_per_candidate_row", ratio(float64(t.valid), t.candRows), "ns")
	m.set("partition.ms_per_job", ratio(ms(t.part), n), "ms")
	m.set("telemetry.overhead_pct", 100*(ratio(median(r.tracedLat), median(r.plainLat))-1), "%")

	// GC pauses stop every job running at the time; the traced jobs'
	// expected share is the pause time scaled by their summed wall time over
	// the phase's wall time.
	byLayer := make(map[string]float64, len(layers))
	for l, v := range r.layerNs {
		byLayer[l] = v
	}
	chargeRuntime(byLayer, float64(rs.pauseNs)*r.tracedNs/float64(rs.wall))
	var sum float64
	for _, l := range layers {
		m.set("layer."+l+"_ms", ratio(byLayer[l]/1e6, float64(r.tracedN)), "ms")
		sum += byLayer[l]
	}
	m.set("layer.job_ms", ratio(r.tracedNs/1e6, float64(r.tracedN)), "ms")
	var err error
	if r.tracedN == 0 {
		err = fmt.Errorf("no traced jobs")
	} else if math.Abs(sum-r.tracedNs) > 1e-6*r.tracedNs {
		err = fmt.Errorf("layer self times sum to %.0f ns, traced job time is %.0f ns", sum, r.tracedNs)
	}
	r.check("layer rollup", err)
	if t.wall > 0 {
		m.set("aod.report_ms", ratio(ms(t.wall-t.total), n), "ms")
	} else {
		m.set("aod.report_ms", m["layer.aod_ms"].Value, "ms")
	}
}

// shardMetrics derives the shard layer's metrics from the pool's counters
// and checks that a healthy loopback pool wasted no work.
func shardMetrics(after, before shardCounters, r *recorder, m metricSet) {
	jobs := float64(len(r.lat["job"]))
	m.set("shard.bytes_per_job", ratio(float64(after.tx+after.rx-before.tx-before.rx), jobs), "B")
	m.set("shard.frames_per_job", ratio(float64(after.frames-before.frames), jobs), "count")
	m.set("shard.partition_bytes_per_job", ratio(float64(after.partBytes-before.partBytes), jobs), "B")
	m.set("shard.rpc_p50_ms", ms(histDiff(after.rpc, before.rpc).Quantile(0.5)), "ms")
	retries := after.retries - before.retries
	redispatch := after.redispatch - before.redispatch
	failures := after.failures - before.failures
	m.set("shard.retries", float64(retries), "count")
	m.set("shard.redispatches", float64(redispatch), "count")
	m.set("shard.worker_failures", float64(failures), "count")
	var err error
	if retries+redispatch+failures > 0 {
		err = fmt.Errorf("loopback pool wasted work: %d retries, %d re-dispatches, %d worker failures", retries, redispatch, failures)
	}
	r.check("shard health", err)
}

// writeFiles writes the full record, and the spans of a traced run, under
// out.
func writeFiles(out string, rec *record, spans []span) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, btoi(rec.Trace)))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	if b, err = json.Marshal(spans); err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary prints every metric of the run with its unit, the host and
// the input digest, before the JSON line.
func printSummary(w io.Writer, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%t inputs=%s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.InputDigest)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s commit=%s tree=%s\n", h.NumCPU, h.GOMAXPROCS, h.CPU, h.GoVersion, h.OS, h.Commit, h.Tree)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "samples: %v  setup rounds (s): wall %.3f, CPU %.3f  host CPU stolen during the phase: %.1f%%\n", rec.Samples, rec.SetupS, rec.SetupCPUS, rec.StealPct)
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, u := range rec.Undersample {
		fmt.Fprintf(w, "warning: fewer than %d samples above the percentile: %s\n", minTail, u)
	}
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
}
