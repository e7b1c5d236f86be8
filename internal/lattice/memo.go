package lattice

import (
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/partition"
)

// Memo is the partition source of a level-wise traversal. Π_∅ is the
// universe partition and Π_{a} a single-attribute partition; every larger
// Π_S is the product Π_{S∖c1}·Π_{S∖c2} of the sets missing S's two smallest
// attributes, built on demand (recursively), memoized, and drawn from an
// arena. The fixed fold structure makes the CSR class order of Π_S a
// function of S alone — which matters, because removal-set collection
// observes class order — so every memo over the same singles (the
// coordinator's, a pool runner's view of it, a shard worker's) yields
// byte-identical partitions.
//
// Memory follows the traversal: level ℓ reads only parents (|S| = ℓ−1) and
// grandparents (|S| = ℓ−2), so Advance(ℓ) returns every smaller set's buffers
// to the arena. Partitions are kept per cardinality, which is what lets a
// level's parents be filled (FillLevel) while runners of the level below
// still read theirs.
//
// A Memo is not safe for concurrent use, with one exception: Partition may be
// called from many goroutines at once for sets that are already memoized (or
// have fewer than two attributes), as long as no other method runs on the
// same cardinality meanwhile.
type Memo struct {
	arena    *partition.Arena
	singles  []*partition.Stripped
	universe *partition.Stripped
	// byCard[k] memoizes the partitions of k-attribute sets. Entries for
	// k < 2 only carry class ids (the partitions are singles/universe and are
	// never released); spare holds emptied maps for reuse.
	byCard []map[AttrSet]memoEntry
	spare  []map[AttrSet]memoEntry

	// hits counts memoized lookups (atomic: concurrent readers count too);
	// builds counts fresh products; seeded counts adopted shipped partitions.
	hits           atomic.Uint64
	builds, seeded uint64
}

type memoEntry struct {
	part *partition.Stripped
	// ids caches part.ClassIDs() for the sorted-scan exact validator.
	ids []int32
}

// NewMemo returns a memo over the single-attribute partitions of a table with
// at least one attribute, drawing product buffers from arena.
func NewMemo(arena *partition.Arena, singles []*partition.Stripped) *Memo {
	return &Memo{
		arena:    arena,
		singles:  singles,
		universe: partition.Universe(singles[0].N),
		byCard:   make([]map[AttrSet]memoEntry, len(singles)+1),
	}
}

// Partition returns Π_set, building and memoizing it (and any missing fold
// base) if needed. The time spent on fresh products is added to *spent when
// spent is non-nil.
func (m *Memo) Partition(set AttrSet, spent *time.Duration) *partition.Stripped {
	k := set.Card()
	switch k {
	case 0:
		return m.universe
	case 1:
		return m.singles[set.Min()]
	}
	if e, ok := m.byCard[k][set]; ok {
		m.hits.Add(1)
		return e.part
	}
	c1 := set.Min()
	c2 := set.Remove(c1).Min()
	p0 := m.Partition(set.Remove(c1), spent)
	p1 := m.Partition(set.Remove(c2), spent)
	var t0 time.Time
	if spent != nil {
		t0 = time.Now()
	}
	p := m.arena.Product(p0, p1)
	if spent != nil {
		*spent += time.Since(t0)
	}
	m.builds++
	m.card(k)[set] = memoEntry{part: p}
	return p
}

// FillLevel memoizes the partitions of every node of lvl, computing the
// missing products across `workers` goroutines. The products' fold bases are
// resolved first, on the calling goroutine; for a level whose level below
// was filled they are all memoized already, so nothing but lvl's own
// cardinality is ever written — the new partitions enter the memo after the
// parallel phase, from the calling goroutine.
func (m *Memo) FillLevel(lvl *Level, workers int) {
	if lvl == nil || lvl.Number < 2 {
		return
	}
	type job struct {
		set    AttrSet
		p0, p1 *partition.Stripped
	}
	mp := m.byCard[lvl.Number]
	var jobs []job
	for _, n := range lvl.Nodes {
		if _, ok := mp[n.Set]; ok {
			continue
		}
		c1 := n.Set.Min()
		c2 := n.Set.Remove(c1).Min()
		jobs = append(jobs, job{n.Set, m.Partition(n.Set.Remove(c1), nil), m.Partition(n.Set.Remove(c2), nil)})
	}
	if len(jobs) == 0 {
		return
	}
	parts := make([]*partition.Stripped, len(jobs))
	workers = min(workers, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				parts[i] = m.arena.Product(jobs[i].p0, jobs[i].p1)
			}
		}()
	}
	wg.Wait()
	mp = m.card(lvl.Number)
	for i, j := range jobs {
		mp[j.set] = memoEntry{part: parts[i]}
	}
	m.builds += uint64(len(jobs))
}

// ClassIDs returns (and caches) the per-row class ids of Π_set, for the
// sorted-scan exact validator.
func (m *Memo) ClassIDs(set AttrSet) []int32 {
	p := m.Partition(set, nil)
	mp := m.card(set.Card())
	e := mp[set]
	if e.ids == nil {
		e = memoEntry{part: p, ids: p.ClassIDs()}
		mp[set] = e
	}
	return e.ids
}

// Install adopts a partition built elsewhere (a coordinator-shipped one) as
// Π_set, reporting whether it was adopted. A set the memo already holds wins
// — its copy is arena memory — and the duplicate's buffers recycle instead.
// The partition must be in the memo's fold order.
func (m *Memo) Install(set AttrSet, p *partition.Stripped) bool {
	k := set.Card()
	if k < 2 {
		return false
	}
	mp := m.card(k)
	if _, ok := mp[set]; ok {
		m.arena.Recycle(p)
		return false
	}
	mp[set] = memoEntry{part: p}
	m.seeded++
	return true
}

// Advance moves the memo to level ℓ: partitions of sets with fewer than ℓ−2
// attributes can no longer be read, so their buffers return to the arena.
func (m *Memo) Advance(level int) {
	for k := 2; k < level-2 && k < len(m.byCard); k++ {
		mp := m.byCard[k]
		if mp == nil {
			continue
		}
		for _, e := range mp {
			m.arena.Recycle(e.part)
		}
		clear(mp)
		m.spare = append(m.spare, mp)
		m.byCard[k] = nil
	}
}

// Counters returns the memoized lookups, fresh products and adopted
// partitions so far.
func (m *Memo) Counters() (hits, builds, seeded uint64) {
	return m.hits.Load(), m.builds, m.seeded
}

// card returns the map of k-attribute sets, reusing an emptied one.
func (m *Memo) card(k int) map[AttrSet]memoEntry {
	mp := m.byCard[k]
	if mp == nil {
		if n := len(m.spare); n > 0 {
			mp = m.spare[n-1]
			m.spare = m.spare[:n-1]
		} else {
			mp = make(map[AttrSet]memoEntry)
		}
		m.byCard[k] = mp
	}
	return mp
}
