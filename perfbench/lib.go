package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"aod"
	"aod/internal/core"
	"aod/internal/dataset"
	"aod/internal/partition"
	"aod/internal/shard"
	"aod/internal/telemetry"
	"aod/internal/validate"
)

// libRun is a closed loop with one caller over a cycle of tables, calling
// the library directly: the wide, tall and fanout workloads.
type libRun struct {
	tables []*table
	digest string
	procs  int

	// fanout only: a persistent shard pool over in-process workers on
	// loopback TCP, reporting into a registry the benchmark owns.
	pool    *aod.ShardPool
	reg     *aod.MetricsRegistry
	workers []net.Listener
	serving sync.WaitGroup // the workers' accept loops
}

// wideShapes is the wide cycle: lattice-heavy tables of 2K×12 and 5K×10.
// The 2K ncvoter tables are 3 of 7 and the 5K ones 2 of 7, so the median job
// falls inside the ncvoter-2K cluster and the p90 inside the ncvoter-5K one,
// never on the gap between two clusters.
func wideShapes(seed int64) []shape {
	return []shape{
		{"flight", 2000, 12, subSeed(seed, 0)},
		{"ncvoter", 2000, 12, subSeed(seed, 1)},
		{"flight", 5000, 10, subSeed(seed, 2)},
		{"ncvoter", 2000, 12, subSeed(seed, 3)},
		{"ncvoter", 5000, 10, subSeed(seed, 4)},
		{"ncvoter", 2000, 12, subSeed(seed, 5)},
		{"ncvoter", 5000, 10, subSeed(seed, 6)},
	}
}

// tallShapes is the tall cycle: few columns, many rows. Two 100K tables and
// one 200K table put the median inside the 100K cluster and the p90 inside
// the 200K one.
func tallShapes(seed int64) []shape {
	return []shape{
		{"ncvoter", 100000, 4, subSeed(seed, 0)},
		{"ncvoter", 200000, 4, subSeed(seed, 1)},
		{"ncvoter", 100000, 4, subSeed(seed, 2)},
	}
}

// fanoutShapes is the fanout cycle: five 8K×8 tables, sized so a run holds
// more than 100 sharded jobs. The median and p90 fall inside a mixture of
// five tables of one shape, which varies less from seed to seed than any one
// table does.
func fanoutShapes(seed int64) []shape {
	var out []shape
	for i := 0; i < 5; i++ {
		out = append(out, shape{"ncvoter", 8000, 8, subSeed(seed, i)})
	}
	return out
}

func setupLib(shapes []shape, procs int, sharded bool) (*libRun, error) {
	in := newInputDigest()
	tables, err := loadTables(shapes, in)
	if err != nil {
		return nil, err
	}
	r := &libRun{tables: tables, digest: in.sum(), procs: procs}
	if !sharded {
		return r, nil
	}
	r.reg = aod.NewMetricsRegistry()
	addrs := make([]string, procs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, fmt.Errorf("shard worker listener: %w", err)
		}
		r.workers = append(r.workers, ln)
		w := shard.NewWorker(shard.WorkerOptions{})
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = w.Serve(ln) // returns once close() closes ln
		}()
		addrs[i] = ln.Addr().String()
	}
	r.pool = aod.DialShardPool(addrs, aod.ShardPoolOptions{Metrics: r.reg})
	// Ship every table to the workers once: the pool is persistent, so the
	// measured jobs run against workers that already hold the data.
	for _, t := range r.tables {
		rep, err := aod.DiscoverSharded(t.ds, shardedOpts(), r.pool)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("warming shard pool: %w", err)
		}
		if reportDigest(rep) != t.ref {
			r.close()
			return nil, fmt.Errorf("sharded report differs from serial on %s", t.shape)
		}
	}
	return r, nil
}

// shardedOpts engages every worker of the pool regardless of job size.
func shardedOpts() aod.Options {
	o := opts
	o.ShardWorkQuantum = -1
	return o
}

func (r *libRun) inputDigest() string { return r.digest }

func (r *libRun) close() {
	if r.pool != nil {
		r.pool.Close()
	}
	for _, ln := range r.workers {
		_ = ln.Close() // stops the worker's accept loop; nothing to report
	}
	r.serving.Wait()
}

// run executes jobs until the deadline. In a traced phase every other pass
// over the cycle is traced, so traced and untraced jobs interleave under
// equal conditions and cover every table.
func (r *libRun) run(ctx context.Context, deadline time.Time, rec *recorder, tr *tracer) {
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		t := r.tables[i%len(r.tables)]
		traced := tr != nil && tracedTurn(i, len(r.tables))
		if r.pool == nil {
			r.job(ctx, rec, tr, traced, t, "level", func(ctx context.Context) (*aod.Report, error) {
				return aod.DiscoverContext(ctx, t.ds, opts)
			})
			continue
		}
		r.job(ctx, rec, tr, traced, t, "worker-exec", func(ctx context.Context) (*aod.Report, error) {
			return aod.DiscoverShardedStreamContext(ctx, t.ds, shardedOpts(), r.pool, nil)
		})
		poolOpts := opts
		poolOpts.Parallelism = r.procs
		t0 := time.Now()
		rep, err := aod.DiscoverContext(ctx, t.ds, poolOpts)
		d := time.Since(t0)
		if err == nil && reportDigest(rep) != t.ref {
			err = fmt.Errorf("pool report digest differs on %s", t.shape)
		}
		rec.op("pool", d, err)
	}
}

// tracedTurn reports whether the i-th job of a cycle of the given length is
// traced: whole passes over the cycle alternate, so each table is traced as
// often as it is not, whatever the cycle's parity.
func tracedTurn(i, cycle int) bool { return (i/cycle)%2 == 1 }

// job runs one discovery, checks its report against the reference and, when
// traced, rolls its spans up by layer. workSpan names the spans that hold
// the validator and partition work.
func (r *libRun) job(ctx context.Context, rec *recorder, tr *tracer, traced bool, t *table, workSpan string, call func(context.Context) (*aod.Report, error)) {
	var ptr *telemetry.Trace
	var origin time.Time
	if traced {
		ptr = telemetry.NewTrace("job")
		origin = time.Now()
		ctx = telemetry.NewContext(ctx, ptr, 0)
	}
	c0 := processCPU()
	t0 := time.Now()
	rep, err := call(ctx)
	d := time.Since(t0)
	c := processCPU() - c0
	if err == nil && reportDigest(rep) != t.ref {
		err = fmt.Errorf("report digest differs on %s", t.shape)
	}
	rec.op("job", d, err)
	if err != nil {
		return
	}
	rec.cpu("job", c)
	rec.job(rep, d)
	if !traced {
		if tr != nil {
			rec.plain(d)
		}
		return
	}
	js := tr.job()
	root := js.add(0, "job", "aod", t0, t0.Add(d))
	prog := ptr.Spans()
	js.importTrace(root, origin, prog)
	js.insertPipeline(root, rep.Stats.TotalTime)
	var build time.Duration
	for _, s := range prog {
		if s.Name == "partition-build" {
			build += s.Duration
		}
	}
	byLayer := rollup(js.spans, workSplit{
		from:       workSpan,
		validate:   float64(rep.Stats.ValidationTime),
		partitions: float64(max(0, rep.Stats.PartitionTime-build)),
	})
	js.commit()
	rec.traced(byLayer, d)
}

// shardCounters reads the pool's aod_shard_* series.
type shardCounters struct {
	tx, rx, frames, partBytes, retries, redispatch uint64
	rpc                                            telemetry.HistogramSnapshot
	failures                                       uint64
}

func (r *libRun) shardCounters() shardCounters {
	var c shardCounters
	if r.reg == nil {
		return c
	}
	c.tx = r.reg.Counter("aod_shard_bytes_total", telemetry.Label("dir", "tx"), "").Value()
	c.rx = r.reg.Counter("aod_shard_bytes_total", telemetry.Label("dir", "rx"), "").Value()
	c.frames = r.reg.Counter("aod_shard_frames_total", "", "").Value()
	c.partBytes = r.reg.Counter("aod_shard_partition_bytes_total", "", "").Value()
	c.retries = r.reg.Counter("aod_shard_retries_total", "", "").Value()
	c.redispatch = r.reg.Counter("aod_shard_redispatch_total", "", "").Value()
	c.rpc = r.reg.Histogram("aod_shard_rpc_seconds", "", "").Snapshot()
	for _, w := range r.pool.Workers() {
		c.failures += w.Failures
	}
	return c
}

// histDiff subtracts two snapshots of one histogram.
func histDiff(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := after
	d.Count = 0
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
		d.Count += d.Buckets[i]
	}
	d.Sum -= before.Sum
	return d
}

// probeTables times single calls into the dataset, core, partition and
// validate layers on the workload's own inputs: the parse rate over every
// table, and fingerprint, prepare, one product of single-column partitions
// and one whole-table OptimalAOC on the largest table. Each is the median of
// five calls.
func probeTables(csvs [][]byte, m metricSet) error {
	var mb float64
	var largest *dataset.Table
	var parse []float64
	for rep := 0; rep < 5; rep++ {
		var total time.Duration
		mb = 0
		for _, b := range csvs {
			t0 := time.Now()
			tbl, err := dataset.ReadCSV(bytes.NewReader(b), dataset.CSVOptions{})
			total += time.Since(t0)
			if err != nil {
				return fmt.Errorf("probe parse: %w", err)
			}
			mb += float64(len(b)) / 1e6
			if largest == nil || tbl.NumRows()*tbl.NumCols() > largest.NumRows()*largest.NumCols() {
				largest = tbl
			}
		}
		parse = append(parse, ms(total))
	}
	m.set("dataset.parse_ms_per_mb", median(parse)/mb, "ms/MB")
	m.set("dataset.fingerprint_ms", medianOf(5, func() { dataset.Fingerprint(largest) }), "ms")
	m.set("core.prepare_ms", medianOf(5, func() { core.Prepare(largest) }), "ms")

	// The two columns whose single-attribute partitions keep the most rows
	// in non-trivial classes: the largest product and validation inputs.
	a, b := -1, -1
	singles := make([]*partition.Stripped, largest.NumCols())
	for i := range singles {
		singles[i] = partition.Single(largest.Column(i))
		switch {
		case a < 0 || singles[i].Size() > singles[a].Size():
			a, b = i, a
		case b < 0 || singles[i].Size() > singles[b].Size():
			b = i
		}
	}
	arena := partition.NewArena()
	m.set("partition.product_ms", medianOf(5, func() {
		s := arena.GetScratch()
		out := singles[a].ProductInto(singles[b], s, arena.GetStripped())
		arena.Recycle(out)
		arena.PutScratch(s)
	}), "ms")
	v := validate.New()
	all := partition.Universe(largest.NumRows())
	vo := validate.Options{Threshold: opts.Threshold, ComputeFullError: true}
	m.set("validate.optimal_aoc_ms", medianOf(5, func() {
		v.OptimalAOC(all, largest.Column(a), largest.Column(b), vo)
	}), "ms")
	return nil
}

// medianOf times f n times and returns the median in milliseconds.
func medianOf(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}
