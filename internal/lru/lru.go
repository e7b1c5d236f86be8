// Package lru provides the one bounded in-memory cache the service stack
// uses: a mutex-guarded least-recently-used map whose budget is counted in
// entries or in bytes.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a least-recently-used cache safe for concurrent use. A nil
// *Cache is a disabled cache: Get always misses and Put drops the entry.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	budget    int64
	costOf    func(V) int64 // nil: every entry costs one
	cost      int64
	ll        list.List // of *entry[K, V]; front = most recently used
	items     map[K]*list.Element
	evictions uint64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns a cache retaining at most budget worth of entries, where an
// entry costs costOf(value), or one when costOf is nil. A budget <= 0 is
// unbounded.
func New[K comparable, V any](budget int64, costOf func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, costOf: costOf, items: make(map[K]*list.Element)}
}

// Get returns the value cached under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put caches v under k as the most recently used entry, replacing any
// value already there, then evicts least recently used entries until the
// cache is within budget. An entry costing more than the whole budget is
// not admitted (and the value it would replace is dropped): it would only
// evict everything else and then miss anyway.
func (c *Cache[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	cost := int64(1)
	if c.costOf != nil {
		cost = c.costOf(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
	if c.budget > 0 && cost > c.budget {
		return
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
	c.cost += cost
	for c.budget > 0 && c.cost > c.budget {
		c.remove(c.ll.Back())
		c.evictions++
	}
}

// Remove drops the entry under k, if any. It does not count as an eviction.
func (c *Cache[K, V]) Remove(k K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
}

func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	c.cost -= e.cost
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Cost returns the summed cost of the cached entries: their count, or
// their bytes for a cache built with a cost function.
func (c *Cache[K, V]) Cost() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// Evictions returns how many entries the budget has pushed out since the
// cache was built.
func (c *Cache[K, V]) Evictions() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
