package core

import (
	"context"
	"time"

	"aod/internal/dataset"
	"aod/internal/lattice"
	"aod/internal/partition"
	"aod/internal/validate"
)

// PreparedTable binds a table to its single-attribute partitions, built once
// and immutable afterwards — the per-dataset state a shard worker caches by
// content fingerprint so that repeated jobs over the same dataset never pay
// the cold-start partitioning again. A PreparedTable may be shared by any
// number of concurrent TaskRunners.
type PreparedTable struct {
	tbl     *dataset.Table
	singles []*partition.Stripped
}

// Prepare builds the per-attribute partitions for the table. The partitions
// are marked shared (partition.Share): arenas refuse to reclaim their
// buffers, so one PreparedTable is safe to hand to any number of concurrent
// jobs — the server's cross-job partition cache depends on this.
func Prepare(tbl *dataset.Table) *PreparedTable {
	singles := make([]*partition.Stripped, tbl.NumCols())
	for a := range singles {
		singles[a] = partition.Single(tbl.Column(a)).Share()
	}
	return &PreparedTable{tbl: tbl, singles: singles}
}

// Table returns the underlying table.
func (p *PreparedTable) Table() *dataset.Table { return p.tbl }

// MemBytes reports the retained partition-buffer bytes of the prepared
// singles — the accounting currency of the server's bounded partition cache.
func (p *PreparedTable) MemBytes() int64 {
	var b int64
	for _, s := range p.singles {
		b += s.MemBytes()
	}
	return b
}

// TaskRunner executes NodeTasks against a prepared table — the remote
// shard worker's runner. It owns a validator, an arena, and its own
// partition memo (lattice.Memo): tasks only carry attribute sets, so context
// partitions are folded from the prepared single-column partitions, or
// adopted from coordinator-shipped seeds, and memoized so sibling tasks and
// consecutive levels share the work. One runner serves one job's sequence of
// level slices; it is not safe for concurrent use.
type TaskRunner struct {
	t   *traversal
	eng *engine
	// seeds are coordinator-shipped context partitions waiting to be
	// installed after the next RunLevel advances the memo.
	seeds []SeedPartition
}

// SeedPartition is one coordinator-shipped context partition: the runner
// installs it into its memo so the level's tasks resolve the set by lookup
// instead of re-folding it from single-attribute partitions. The partition
// must be in the memo's fold order — shipped partitions come from the
// coordinator's memo, which builds them exactly that way.
type SeedPartition struct {
	Set  lattice.AttrSet
	Part *partition.Stripped
}

// SeedPartitions queues shipped partitions for the next RunLevel call. The
// runner takes ownership: seeds recycle into its arena like any built
// partition once the memo releases them.
func (r *TaskRunner) SeedPartitions(seeds []SeedPartition) {
	r.seeds = append(r.seeds, seeds...)
}

// NewTaskRunner validates the configuration against the table and returns a
// runner for one job. Coordinator-owned policies are stripped: a worker never
// honors TimeLimit (the coordinator owns abort policy, via the RunLevel
// context) and never uses the sorted-scan route (its per-attribute order
// cache is coordinator-local, as under the Pool executor).
func (p *PreparedTable) NewTaskRunner(cfg Config) (*TaskRunner, error) {
	if err := cfg.Validate(p.tbl.NumCols()); err != nil {
		return nil, err
	}
	cfg.TimeLimit = 0
	cfg.UseSortedScan = false
	t := &traversal{
		tbl:      p.tbl,
		cfg:      cfg,
		eps:      cfg.effectiveThreshold(),
		numAttrs: p.tbl.NumCols(),
		maxLevel: p.tbl.NumCols(),
		arena:    partition.NewArena(),
		singles:  p.singles,
		start:    time.Now(),
		res:      &Result{},
	}
	t.memo = lattice.NewMemo(t.arena, t.singles)
	return &TaskRunner{t: t, eng: &engine{t: t, v: validate.New(), res: t.res}}, nil
}

// PartitionCacheStats returns the runner's memoized partition lookups and
// fresh product builds so far.
func (r *TaskRunner) PartitionCacheStats() (hits, builds uint64) {
	hits, builds, _ = r.t.memo.Counters()
	return hits, builds
}

// SeededPartitions returns how many coordinator-shipped partitions were
// installed into the memo (duplicates of already-memoized sets are
// recycled, not counted).
func (r *TaskRunner) SeededPartitions() uint64 {
	_, _, seeded := r.t.memo.Counters()
	return seeded
}

// NumRows returns the prepared table's row count — the bound incoming seed
// partitions are validated against.
func (r *TaskRunner) NumRows() int { return r.t.tbl.NumRows() }

// RunLevel executes one slice of a lattice level in task order. The context
// bounds the work: when it is canceled (the coordinator gave up on this
// shard), the remaining tasks are skipped and the partial results are
// returned — the coordinator discards them and re-runs the slice elsewhere.
func (r *TaskRunner) RunLevel(ctx context.Context, tasks []NodeTask) []NodeResult {
	r.t.ctx = ctx
	if len(tasks) > 0 {
		r.t.memo.Advance(tasks[0].Level)
	}
	for _, sd := range r.seeds {
		if sd.Part != nil {
			r.t.memo.Install(sd.Set, sd.Part)
		}
	}
	clear(r.seeds)
	r.seeds = r.seeds[:0]
	out := make([]NodeResult, len(tasks))
	for i := range tasks {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		r.eng.execTask(&tasks[i], &out[i])
	}
	return out
}
