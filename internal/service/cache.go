package service

import (
	"sync/atomic"

	"aod"
	"aod/internal/lru"
	"aod/internal/store"
)

// resultCache caches completed discovery reports keyed by (dataset
// fingerprint, canonicalized options) — see cacheKey. Hit/miss accounting
// lives in the Service (a "hit" there includes joining an in-flight
// computation); the cache itself only tracks occupancy.
//
// With a Store backend the cache is two-tiered: completed reports are
// written through to disk, an in-memory miss falls back to the report store
// (re-admitting the report to memory), and LRU eviction only sheds the
// in-memory copy — the disk tier is unbounded and survives restarts.
type resultCache struct {
	mem      *lru.Cache[string, *aod.Report] // nil = memory tier disabled
	capacity int

	st *store.Store // nil = memory only
	// diskHits counts gets answered by the disk tier; persistErrors counts
	// write-throughs that failed (the report stays served from memory).
	diskHits      atomic.Uint64
	persistErrors atomic.Uint64
}

// newResultCache returns a cache holding up to capacity reports in memory;
// capacity <= 0 disables the memory tier. A non-nil store adds the durable
// disk tier.
func newResultCache(capacity int, st *store.Store) *resultCache {
	c := &resultCache{capacity: capacity, st: st}
	if capacity > 0 {
		c.mem = lru.New[string, *aod.Report](int64(capacity), nil)
	}
	return c
}

// get returns the cached report for key — from memory, refreshing its
// recency, or from the disk tier, re-admitting it to memory.
func (c *resultCache) get(key string) (*aod.Report, bool) {
	if rep, ok := c.mem.Get(key); ok {
		return rep, true
	}
	if c.st == nil {
		return nil, false
	}
	rep, ok := c.st.GetReport(key)
	if !ok {
		return nil, false
	}
	c.diskHits.Add(1)
	c.mem.Put(key, rep)
	return rep, true
}

// getMem consults only the memory tier — no disk I/O, so it is safe to call
// with other locks held (the under-lock double-check in Service.compute).
func (c *resultCache) getMem(key string) (*aod.Report, bool) { return c.mem.Get(key) }

// put stores the report under key: disk tier first (so the durable copy
// exists before any consumer can observe the cached one), then memory. A
// failed disk write is counted in persistErrors and the report is still
// served from memory — the job's work is not discarded, but it will not
// survive a restart. Reports are treated as immutable by all consumers.
func (c *resultCache) put(key string, rep *aod.Report) {
	if c.st != nil {
		if err := c.st.PutReport(key, rep); err != nil {
			c.persistErrors.Add(1)
		}
	}
	c.mem.Put(key, rep)
}

// stats returns current size, capacity, and lifetime evictions.
func (c *resultCache) stats() (size, capacity int, evictions uint64) {
	return c.mem.Len(), c.capacity, c.mem.Evictions()
}
