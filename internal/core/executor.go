package core

import (
	"context"
	"runtime"
	"sync"

	"aod/internal/dataset"
	"aod/internal/partition"
	"aod/internal/validate"
)

// Serial returns the sequential executor: the dispatcher with no runners,
// which processes every node of each level inline, in order, accumulating
// directly into the run's result. It is the only schedule that enables the
// sorted-scan exact route (Config.UseSortedScan), whose class-id cache lives
// in the partition memo and is not shared across goroutines.
func Serial() Executor { return &dispatcher{workers: 1} }

// Pool returns the worker-pool executor: the dispatcher over `workers`
// in-process runners. Each lattice level is cut into contiguous slices that
// the runners validate concurrently against the coordinator's partition memo
// (no codec, no copies of partitions), and the results commit in node
// order, so the result is identical to the serial executor's. This is the
// shared-memory analogue of the distributed extension the paper lists as
// future work (after Saxena, Golab & Ilyas, PVLDB 2019 — reference [8]):
// nodes of a level are independent given the previous level's state, so
// they partition cleanly across workers. workers <= 0 selects GOMAXPROCS.
func Pool(workers int) Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &dispatcher{
		workers:    workers,
		quantum:    -1,
		sharesMemo: true,
		open: func(t *traversal) (ShardSession, error) {
			return newLocalSession(t, workers), nil
		},
	}
}

// localSession is Pool's ShardSession: in-process runners, one engine
// (validator and scratch) each, executing level slices on the coordinator's
// traversal. Runners only read the partition memo — the dispatcher fills a
// level's parent partitions before any of its slices dispatches. A level is
// cut into slicesPerRunner slices per runner, and a slice takes whichever
// engine is free, so uneven per-node costs even out across runners.
type localSession struct {
	free chan *engine // idle runners' engines; its capacity is the runner count
}

// slicesPerRunner is the local session's slicing granularity. Per-node cost
// varies widely with pruning, so one slice per runner leaves runners idle:
// Pool(2) on an 8K×8 ncvoter table took about 1.2× as long with one slice
// per runner as with four, and eight were no faster than four (2-vCPU VM,
// medians of 6–8 alternated runs).
const slicesPerRunner = 4

func newLocalSession(t *traversal, workers int) *localSession {
	s := &localSession{free: make(chan *engine, workers)}
	for range workers {
		// res only absorbs the runner's abort flags; the dispatcher records
		// the abort itself once the level's slices are in.
		s.free <- &engine{t: t, v: validate.New(), res: &Result{}}
	}
	return s
}

func (s *localSession) Width() int { return cap(s.free) * slicesPerRunner }

func (s *localSession) RunSlice(_ context.Context, _, _ int, tasks []NodeTask) ([]NodeResult, error) {
	e := <-s.free
	defer func() { s.free <- e }()
	out := make([]NodeResult, len(tasks))
	for i := range tasks {
		if e.aborted() {
			break
		}
		e.execTask(&tasks[i], &out[i])
	}
	return out, nil
}

func (s *localSession) Close() error { return nil }

// buildSingles materializes the per-attribute partitions, across `workers`
// goroutines when workers > 1. Cancellation is polled per column so an abort
// doesn't pay for the whole O(cols · rows) startup phase on large tables; it
// returns false when the run was aborted (some singles may be nil then — the
// caller must not touch them). Pre-injected singles (a warm Pipeline.Prepared
// start) short-circuit the build entirely.
func (t *traversal) buildSingles(workers int) bool {
	if t.singles != nil {
		return !t.abortedInto(&t.res.Stats)
	}
	t.singles = make([]*partition.Stripped, t.numAttrs)
	if workers <= 1 {
		for a := 0; a < t.numAttrs; a++ {
			if t.abortedInto(&t.res.Stats) {
				return false
			}
			t.singles[a] = partition.Single(t.tbl.Column(a))
		}
		return true
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for a := 0; a < t.numAttrs; a++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(a int) {
			defer wg.Done()
			defer func() { <-sem }()
			if t.ctx != nil && t.ctx.Err() != nil {
				return
			}
			t.singles[a] = partition.Single(t.tbl.Column(a))
		}(a)
	}
	wg.Wait()
	// Some singles may be nil after a cancellation; abort before anything
	// touches them.
	return !t.abortedInto(&t.res.Stats)
}

// DiscoverParallel runs the same discovery as Discover but validates the
// candidates of each lattice level concurrently across a worker pool (the
// Pool executor on the shared pipeline). The result is identical to
// Discover's — the node-order commit re-establishes the sequential
// deterministic order; only wall-clock time differs. workers <= 0 selects
// GOMAXPROCS.
func DiscoverParallel(tbl *dataset.Table, cfg Config, workers int) (*Result, error) {
	return DiscoverParallelContext(context.Background(), tbl, cfg, workers)
}

// DiscoverParallelContext is DiscoverParallel with cooperative cancellation:
// every worker polls the context between candidate validations, so a
// canceled run frees its workers within one validation's latency. As in
// DiscoverContext, cancellation returns the partial result with
// Stats.Canceled set and a nil error.
func DiscoverParallelContext(ctx context.Context, tbl *dataset.Table, cfg Config, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return DiscoverContext(ctx, tbl, cfg)
	}
	return Pipeline{Executor: Pool(workers)}.Run(ctx, tbl, cfg)
}
