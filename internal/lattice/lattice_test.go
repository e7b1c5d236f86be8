package lattice

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aod/internal/dataset"
	"aod/internal/partition"
)

func TestAttrSetBasics(t *testing.T) {
	s := NewAttrSet(0, 3, 5)
	if !s.Has(0) || !s.Has(3) || !s.Has(5) || s.Has(1) {
		t.Error("Has wrong")
	}
	if s.Card() != 3 {
		t.Errorf("Card = %d", s.Card())
	}
	if got := s.Add(1).Card(); got != 4 {
		t.Errorf("Add Card = %d", got)
	}
	if got := s.Remove(3); got.Has(3) || got.Card() != 2 {
		t.Errorf("Remove = %v", got)
	}
	if got := s.Attrs(); !reflect.DeepEqual(got, []int{0, 3, 5}) {
		t.Errorf("Attrs = %v", got)
	}
	if s.Min() != 0 || s.Max() != 5 {
		t.Errorf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	var empty AttrSet
	if !empty.IsEmpty() || empty.Min() != -1 || empty.Max() != -1 {
		t.Error("empty set handling wrong")
	}
	if !s.Contains(NewAttrSet(0, 5)) || s.Contains(NewAttrSet(0, 1)) {
		t.Error("Contains wrong")
	}
	u := NewAttrSet(1, 3)
	if got := s.Union(u); got.Card() != 4 {
		t.Errorf("Union = %v", got)
	}
	if got := s.Intersect(u); got != NewAttrSet(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Minus(u); got != NewAttrSet(0, 5) {
		t.Errorf("Minus = %v", got)
	}
}

func TestAttrSetStrings(t *testing.T) {
	s := NewAttrSet(0, 2)
	if got := s.String(); got != "{0,2}" {
		t.Errorf("String = %q", got)
	}
	if got := s.Format([]string{"pos", "exp", "sal"}); got != "{pos,sal}" {
		t.Errorf("Format = %q", got)
	}
	if got := NewAttrSet(9).Format([]string{"a"}); got != "{9}" {
		t.Errorf("Format out-of-range = %q", got)
	}
	if got := AttrSet(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
	if got := NewAttrSet(10, 21).String(); got != "{10,21}" {
		t.Errorf("two-digit String = %q", got)
	}
}

func TestAttrSetForEachOrder(t *testing.T) {
	s := NewAttrSet(7, 1, 4)
	var got []int
	s.ForEach(func(a int) { got = append(got, a) })
	if !reflect.DeepEqual(got, []int{1, 4, 7}) {
		t.Errorf("ForEach order = %v", got)
	}
}

func TestPairIndexBijective(t *testing.T) {
	for numAttrs := 2; numAttrs <= 12; numAttrs++ {
		seen := make(map[int]bool)
		for a := 0; a < numAttrs; a++ {
			for b := a + 1; b < numAttrs; b++ {
				i := PairIndex(a, b, numAttrs)
				if i < 0 || i >= NumPairs(numAttrs) {
					t.Fatalf("index %d out of range for %d attrs", i, numAttrs)
				}
				if seen[i] {
					t.Fatalf("duplicate index %d for {%d,%d} (%d attrs)", i, a, b, numAttrs)
				}
				seen[i] = true
				if PairIndex(b, a, numAttrs) != i {
					t.Fatalf("PairIndex not symmetric for {%d,%d}", a, b)
				}
				ra, rb := pairFromIndex(i, numAttrs)
				if ra != a || rb != b {
					t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", i, ra, rb, a, b)
				}
			}
		}
		if len(seen) != NumPairs(numAttrs) {
			t.Fatalf("%d attrs: %d indexes, want %d", numAttrs, len(seen), NumPairs(numAttrs))
		}
	}
}

func TestPairSetOperations(t *testing.T) {
	p := NewPairSet(10)
	if !p.IsEmpty() || p.Count() != 0 {
		t.Error("new set should be empty")
	}
	p.Add(2, 7)
	p.Add(9, 0) // unordered
	if !p.Has(7, 2) || !p.Has(0, 9) || p.Has(1, 2) {
		t.Error("Has wrong")
	}
	if p.Count() != 2 {
		t.Errorf("Count = %d", p.Count())
	}
	q := p.Clone()
	q.Remove(2, 7)
	if q.Has(2, 7) || !p.Has(2, 7) {
		t.Error("Clone not independent")
	}
	q.Add(3, 4)
	p.UnionWith(q)
	if !p.Has(3, 4) || p.Count() != 3 {
		t.Errorf("UnionWith: count = %d", p.Count())
	}
	var pairs [][2]int
	p.ForEach(func(a, b int) { pairs = append(pairs, [2]int{a, b}) })
	if len(pairs) != 3 {
		t.Errorf("ForEach visited %d pairs", len(pairs))
	}
	for _, pr := range pairs {
		if pr[0] >= pr[1] {
			t.Errorf("ForEach pair not ordered: %v", pr)
		}
	}
}

func TestPairSetRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		numAttrs := 2 + rng.Intn(30)
		p := NewPairSet(numAttrs)
		ref := make(map[[2]int]bool)
		for op := 0; op < 200; op++ {
			a, b := rng.Intn(numAttrs), rng.Intn(numAttrs)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if rng.Intn(3) == 0 {
				p.Remove(a, b)
				delete(ref, [2]int{a, b})
			} else {
				p.Add(a, b)
				ref[[2]int{a, b}] = true
			}
		}
		if p.Count() != len(ref) {
			t.Fatalf("count = %d, want %d", p.Count(), len(ref))
		}
		p.ForEach(func(a, b int) {
			if !ref[[2]int{a, b}] {
				t.Fatalf("unexpected pair {%d,%d}", a, b)
			}
		})
	}
}

func buildTestTable(t *testing.T, numAttrs, rows int, seed int64) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder()
	for c := 0; c < numAttrs; c++ {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = int64(rng.Intn(3))
		}
		b.AddInts(string(rune('a'+c)), vals)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func singlesOf(tbl *dataset.Table) []*partition.Stripped {
	singles := make([]*partition.Stripped, tbl.NumCols())
	for i := range singles {
		singles[i] = partition.Single(tbl.Column(i))
	}
	return singles
}

func TestLevelGenerationEnumeratesAllSets(t *testing.T) {
	l0 := Level0(5)
	l1 := Level1(5)
	if len(l0.Nodes) != 1 || l0.Lookup(0) == nil {
		t.Fatalf("level 0 = %v", l0.Nodes)
	}
	if len(l1.Nodes) != 5 {
		t.Fatalf("level 1 size = %d", len(l1.Nodes))
	}
	want := []int{10, 10, 5, 1} // C(5,2), C(5,3), C(5,4), C(5,5)
	cur := l1
	for lv := 2; lv <= 5; lv++ {
		prev := cur
		cur = NextLevel(cur, 5)
		if len(cur.Nodes) != want[lv-2] {
			t.Fatalf("level %d size = %d, want %d", lv, len(cur.Nodes), want[lv-2])
		}
		seen := make(map[AttrSet]bool)
		for _, n := range cur.Nodes {
			if n.Set.Card() != lv {
				t.Fatalf("level %d node has card %d", lv, n.Set.Card())
			}
			if seen[n.Set] {
				t.Fatalf("duplicate node %v", n.Set)
			}
			seen[n.Set] = true
			n.Set.ForEach(func(c int) {
				if prev.Lookup(n.Set.Remove(c)) == nil {
					t.Fatalf("node %v: parent %v missing from level %d", n.Set, n.Set.Remove(c), lv-1)
				}
			})
		}
	}
	if next := NextLevel(cur, 5); len(next.Nodes) != 0 {
		t.Fatalf("level 6 should be empty, got %d nodes", len(next.Nodes))
	}
}

// canonicalFold computes Π_s in the memo's fold order — the product of the
// sets missing s's two smallest attributes, recursively — with plain
// allocation and no memoization.
func canonicalFold(singles []*partition.Stripped, s AttrSet) *partition.Stripped {
	switch s.Card() {
	case 0:
		return partition.Universe(singles[0].N)
	case 1:
		return singles[s.Min()]
	}
	c1 := s.Min()
	c2 := s.Remove(c1).Min()
	return canonicalFold(singles, s.Remove(c1)).Product(canonicalFold(singles, s.Remove(c2)))
}

// requireSameCSR asserts byte-identical partitions: the same classes in the
// same order with the same row order — the order removal sets observe.
func requireSameCSR(t *testing.T, label string, got, want *partition.Stripped) {
	t.Helper()
	gr, go_ := got.RawCSR()
	wr, wo := want.RawCSR()
	if got.N != want.N || !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(go_, wo) {
		t.Fatalf("%s: CSR differs:\ngot  %v\nwant %v", label, got, want)
	}
}

// cloneCSR copies a partition out of arena memory that may be recycled.
func cloneCSR(t *testing.T, p *partition.Stripped) *partition.Stripped {
	t.Helper()
	rows, offs := p.RawCSR()
	c, err := partition.FromCSR(p.N, append([]int32(nil), rows...), append([]int32(nil), offs...))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLazyPartitionMatchesDirectProduct(t *testing.T) {
	tbl := buildTestTable(t, 4, 40, 2)
	singles := singlesOf(tbl)
	lazy := NewMemo(partition.NewArena(), singles)
	filled := NewMemo(partition.NewArena(), singles)
	if _, builds, _ := lazy.Counters(); builds != 0 {
		t.Fatalf("memo built %d partitions eagerly", builds)
	}
	lvl := Level1(4)
	for lv := 2; lv <= 4; lv++ {
		lvl = NextLevel(lvl, 4)
		filled.FillLevel(lvl, 3)
		for _, n := range lvl.Nodes {
			got := lazy.Partition(n.Set, nil)
			want := canonicalFold(singles, n.Set)
			requireSameCSR(t, "lazy "+n.Set.String(), got, want)
			requireSameCSR(t, "filled "+n.Set.String(), filled.Partition(n.Set, nil), want)
			// The set family also matches a plain left fold over the singles.
			attrs := n.Set.Attrs()
			direct := singles[attrs[0]]
			for _, a := range attrs[1:] {
				direct = direct.Product(singles[a])
			}
			if !got.Refines(direct) || !direct.Refines(got) {
				t.Fatalf("node %v: partitions differ", n.Set)
			}
		}
	}
	if hits, _, _ := filled.Counters(); hits == 0 {
		t.Error("filled memo never served a memoized lookup")
	}
}

func TestPartitionReleaseAndRematerialize(t *testing.T) {
	tbl := buildTestTable(t, 3, 30, 3)
	singles := singlesOf(tbl)
	m := NewMemo(partition.NewArena(), singles)
	s := NewAttrSet(0, 2)
	var spent time.Duration
	p1 := cloneCSR(t, m.Partition(s, &spent))
	ids := append([]int32(nil), m.ClassIDs(s)...)
	// Level 4 still reads 2-attribute grandparents: nothing is released.
	m.Advance(4)
	m.Partition(s, nil)
	if _, builds, _ := m.Counters(); builds != 1 {
		t.Fatalf("builds = %d after a lookup within the horizon, want 1", builds)
	}
	// Level 5 never reads 2-attribute sets: the partition recycles and a
	// later request rebuilds it, identically.
	m.Advance(5)
	p2 := m.Partition(s, &spent)
	if _, builds, _ := m.Counters(); builds != 2 {
		t.Fatalf("builds = %d after release, want 2", builds)
	}
	requireSameCSR(t, "rematerialized", p2, p1)
	if got := m.ClassIDs(s); !reflect.DeepEqual(got, ids) {
		t.Fatalf("class ids differ after release: %v vs %v", got, ids)
	}
	// A shipped duplicate loses to the memoized copy; a new set is adopted.
	if m.Install(s, cloneCSR(t, p1)) {
		t.Error("Install replaced a memoized partition")
	}
	if !m.Install(NewAttrSet(0, 1), canonicalFold(singles, NewAttrSet(0, 1))) {
		t.Error("Install refused a new partition")
	}
	if _, _, seeded := m.Counters(); seeded != 1 {
		t.Errorf("seeded = %d, want 1", seeded)
	}
}

func TestLevelLookup(t *testing.T) {
	l1 := Level1(3)
	if l1.Lookup(NewAttrSet(1)) == nil {
		t.Error("Lookup {1} failed")
	}
	if l1.Lookup(NewAttrSet(0, 1)) != nil {
		t.Error("Lookup of absent set should be nil")
	}
	var nilLevel *Level
	if nilLevel.Lookup(NewAttrSet(0)) != nil {
		t.Error("nil level Lookup should be nil")
	}
}
