package lru

import (
	"fmt"
	"sync"
	"testing"
)

// op is one step of a table case: put key=val, get key expecting val (0 =
// a miss), or remove key. In byte-budgeted cases a value is its own cost.
type op struct {
	kind byte // 'p', 'g' or 'r'
	key  string
	val  int
}

func put(k string, v int) op { return op{'p', k, v} }
func get(k string, v int) op { return op{'g', k, v} }
func del(k string) op        { return op{'r', k, 0} }

func TestCache(t *testing.T) {
	byValue := func(v int) int64 { return int64(v) }
	cases := []struct {
		name      string
		nilCache  bool
		budget    int64
		costOf    func(int) int64
		ops       []op
		len       int
		cost      int64
		evictions uint64
	}{
		{name: "entry budget evicts least recently used",
			budget: 2,
			ops:    []op{put("a", 1), put("b", 2), get("a", 1), put("c", 3), get("b", 0), get("a", 1), get("c", 3)},
			len:    2, cost: 2, evictions: 1},
		{name: "byte budget evicts until within budget",
			budget: 10, costOf: byValue,
			ops: []op{put("a", 3), put("b", 3), put("c", 3), get("a", 3), put("d", 8),
				get("b", 0), get("c", 0), get("a", 0), get("d", 8)},
			len: 1, cost: 8, evictions: 3},
		{name: "byte budget keeps recently used",
			budget: 10, costOf: byValue,
			ops: []op{put("a", 4), put("b", 4), get("a", 4), put("c", 4), get("b", 0), get("a", 4), get("c", 4)},
			len: 2, cost: 8, evictions: 1},
		{name: "entry over the whole budget is refused",
			budget: 10, costOf: byValue,
			ops: []op{put("a", 4), put("b", 11), get("b", 0), get("a", 4)},
			len: 1, cost: 4, evictions: 0},
		{name: "refused replacement drops the stale value",
			budget: 10, costOf: byValue,
			ops: []op{put("a", 4), put("a", 11), get("a", 0)},
			len: 0, cost: 0, evictions: 0},
		{name: "replace adjusts the retained cost",
			budget: 10, costOf: byValue,
			ops: []op{put("a", 4), put("b", 4), put("a", 6), get("a", 6), put("b", 1), get("b", 1)},
			len: 2, cost: 7, evictions: 0},
		{name: "replace refreshes recency",
			budget: 2,
			ops:    []op{put("a", 1), put("b", 2), put("a", 5), put("c", 3), get("b", 0), get("a", 5)},
			len:    2, cost: 2, evictions: 1},
		{name: "remove frees budget without counting an eviction",
			budget: 2,
			ops:    []op{put("a", 1), put("b", 2), del("a"), del("missing"), get("a", 0), put("c", 3), get("b", 2)},
			len:    2, cost: 2, evictions: 0},
		{name: "zero budget is unbounded",
			budget: 0, costOf: byValue,
			ops: []op{put("a", 1<<20), put("b", 1<<20), put("c", 1), get("a", 1<<20)},
			len: 3, cost: 2<<20 + 1, evictions: 0},
		{name: "negative budget is unbounded",
			budget: -1,
			ops:    []op{put("a", 1), put("b", 2), put("c", 3), get("a", 1)},
			len:    3, cost: 3, evictions: 0},
		{name: "nil cache is disabled",
			nilCache: true,
			ops:      []op{put("a", 1), get("a", 0), del("a")},
			len:      0, cost: 0, evictions: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c *Cache[string, int]
			if !tc.nilCache {
				c = New[string](tc.budget, tc.costOf)
			}
			for i, o := range tc.ops {
				switch o.kind {
				case 'p':
					c.Put(o.key, o.val)
				case 'r':
					c.Remove(o.key)
				case 'g':
					v, ok := c.Get(o.key)
					if want := o.val != 0; ok != want || v != o.val {
						t.Errorf("op %d: Get(%q) = (%d, %v), want (%d, %v)", i, o.key, v, ok, o.val, want)
					}
				}
			}
			if got := c.Len(); got != tc.len {
				t.Errorf("Len = %d, want %d", got, tc.len)
			}
			if got := c.Cost(); got != tc.cost {
				t.Errorf("Cost = %d, want %d", got, tc.cost)
			}
			if got := c.Evictions(); got != tc.evictions {
				t.Errorf("Evictions = %d, want %d", got, tc.evictions)
			}
		})
	}
}

// TestCacheConcurrent drives one cache from several goroutines; under
// -race it checks the locking, and afterwards the bound and the cost
// accounting must still agree.
func TestCacheConcurrent(t *testing.T) {
	const budget = 8
	c := New[string, int](budget, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((g*7 + i) % 20)
				c.Put(k, i+1)
				c.Get(fmt.Sprint(i % 20))
				if i%5 == 0 {
					c.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > budget || int64(n) != c.Cost() {
		t.Errorf("Len %d, Cost %d: want equal and at most %d", n, c.Cost(), budget)
	}
}
