package lis

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// lndsLengthBrute is the O(n²) dynamic program, used as the reference.
func lndsLengthBrute(seq []int32) int {
	n := len(seq)
	if n == 0 {
		return 0
	}
	dp := make([]int, n)
	best := 0
	for i := 0; i < n; i++ {
		dp[i] = 1
		for j := 0; j < i; j++ {
			if seq[j] <= seq[i] && dp[j]+1 > dp[i] {
				dp[i] = dp[j] + 1
			}
		}
		if dp[i] > best {
			best = dp[i]
		}
	}
	return best
}

func lisLengthBrute(seq []int32) int {
	n := len(seq)
	if n == 0 {
		return 0
	}
	dp := make([]int, n)
	best := 0
	for i := 0; i < n; i++ {
		dp[i] = 1
		for j := 0; j < i; j++ {
			if seq[j] < seq[i] && dp[j]+1 > dp[i] {
				dp[i] = dp[j] + 1
			}
		}
		if dp[i] > best {
			best = dp[i]
		}
	}
	return best
}

func randomSeq(rng *rand.Rand, n, domain int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(rng.Intn(domain))
	}
	return s
}

func TestLNDSLengthExamples(t *testing.T) {
	cases := []struct {
		seq  []int32
		want int
	}{
		{nil, 0},
		{[]int32{5}, 1},
		{[]int32{1, 2, 3}, 3},
		{[]int32{3, 2, 1}, 1},
		{[]int32{2, 2, 2}, 3},
		// Example 3.2 of the paper: tax values scaled ×10:
		// [2K, 2.5K, 0.3K, 12K, 1.5K, 16.5K, 1.8K, 7.2K, 16K]
		{[]int32{20, 25, 3, 120, 15, 165, 18, 72, 160}, 5},
		{[]int32{1, 3, 2, 3, 1, 4}, 4},
	}
	for _, c := range cases {
		if got := LNDSLength(c.seq); got != c.want {
			t.Errorf("LNDSLength(%v) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestLISLengthExamples(t *testing.T) {
	cases := []struct {
		seq  []int32
		want int
	}{
		{nil, 0},
		{[]int32{2, 2, 2}, 1},
		{[]int32{1, 2, 2, 3}, 3},
		{[]int32{10, 9, 2, 5, 3, 7, 101, 18}, 4},
	}
	for _, c := range cases {
		if got := LISLength(c.seq); got != c.want {
			t.Errorf("LISLength(%v) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestLNDSLengthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		seq := randomSeq(rng, rng.Intn(60), 8)
		if got, want := LNDSLength(seq), lndsLengthBrute(seq); got != want {
			t.Fatalf("seq %v: LNDSLength = %d, brute = %d", seq, got, want)
		}
	}
}

func TestLISLengthMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		seq := randomSeq(rng, rng.Intn(60), 8)
		if got, want := LISLength(seq), lisLengthBrute(seq); got != want {
			t.Fatalf("seq %v: LISLength = %d, brute = %d", seq, got, want)
		}
	}
}

func TestLNDSReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		seq := randomSeq(rng, rng.Intn(50), 6)
		idx := LNDS(seq)
		if len(idx) != LNDSLength(seq) {
			t.Fatalf("seq %v: reconstruction length %d != LNDSLength %d", seq, len(idx), LNDSLength(seq))
		}
		for k := 1; k < len(idx); k++ {
			if idx[k-1] >= idx[k] {
				t.Fatalf("seq %v: indexes not ascending: %v", seq, idx)
			}
			if seq[idx[k-1]] > seq[idx[k]] {
				t.Fatalf("seq %v: values not non-decreasing along %v", seq, idx)
			}
		}
	}
}

func TestLNDSEmptyAndSingle(t *testing.T) {
	if got := LNDS(nil); got != nil {
		t.Errorf("LNDS(nil) = %v, want nil", got)
	}
	if got := LNDS([]int32{7}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("LNDS([7]) = %v, want [0]", got)
	}
}

// LNDS of the concatenation of two sequences is at least the max of the parts.
func TestLNDSConcatenationMonotonicity(t *testing.T) {
	f := func(a, b []int32) bool {
		cat := append(append([]int32{}, a...), b...)
		l := LNDSLength(cat)
		return l >= LNDSLength(a) && l >= LNDSLength(b)
	}
	cfg := &quick.Config{MaxCount: 100, Values: func(args []reflect.Value, rng *rand.Rand) {
		args[0] = reflect.ValueOf(randomSeq(rng, rng.Intn(30), 10))
		args[1] = reflect.ValueOf(randomSeq(rng, rng.Intn(30), 10))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFenwickBasics(t *testing.T) {
	f := NewFenwick(10)
	f.Add(0, 1)
	f.Add(3, 2)
	f.Add(9, 1)
	if got := f.PrefixSum(-1); got != 0 {
		t.Errorf("PrefixSum(-1) = %d", got)
	}
	if got := f.PrefixSum(0); got != 1 {
		t.Errorf("PrefixSum(0) = %d", got)
	}
	if got := f.PrefixSum(3); got != 3 {
		t.Errorf("PrefixSum(3) = %d", got)
	}
	if got := f.PrefixSum(100); got != 4 {
		t.Errorf("PrefixSum(100) = %d (should clamp)", got)
	}
	if got := f.Total(); got != 4 {
		t.Errorf("Total = %d", got)
	}
	f.Reset()
	if got := f.Total(); got != 0 {
		t.Errorf("Total after Reset = %d", got)
	}
}

func TestFenwickMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 100; iter++ {
		size := 1 + rng.Intn(50)
		f := NewFenwick(size)
		naive := make([]int32, size)
		for op := 0; op < 100; op++ {
			v := int32(rng.Intn(size))
			f.Add(v, 1)
			naive[v]++
			q := int32(rng.Intn(size))
			var want int32
			for i := int32(0); i <= q; i++ {
				want += naive[i]
			}
			if got := f.PrefixSum(q); got != want {
				t.Fatalf("PrefixSum(%d) = %d, want %d", q, got, want)
			}
		}
	}
}

func inversionCountsBrute(seq []int32) ([]int32, int64) {
	per := make([]int32, len(seq))
	var total int64
	for i := 0; i < len(seq); i++ {
		for j := i + 1; j < len(seq); j++ {
			if seq[j] < seq[i] {
				per[i]++
				per[j]++
				total++
			}
		}
	}
	return per, total
}

func TestInversionCountsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		domain := 1 + rng.Intn(12)
		seq := randomSeq(rng, rng.Intn(60), domain)
		got, gotTotal := InversionCounts(seq, int32(domain))
		want, wantTotal := inversionCountsBrute(seq)
		if gotTotal != wantTotal {
			t.Fatalf("seq %v: total = %d, want %d", seq, gotTotal, wantTotal)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seq %v: per-elem = %v, want %v", seq, got, want)
		}
	}
}

func TestInversionCountsPaperExample(t *testing.T) {
	// Example 3.1: sal ∼ tax swap counts; tax sequence after sorting by sal.
	seq := []int32{20, 25, 3, 120, 15, 165, 18, 72, 160}
	per, total := InversionCounts(seq, 166)
	want := []int32{3, 3, 2, 3, 3, 3, 4, 2, 1}
	if !reflect.DeepEqual(per, want) {
		t.Errorf("per-elem = %v, want %v", per, want)
	}
	if total != 12 {
		t.Errorf("total = %d, want 12", total)
	}
}

// The removal-set size implied by LNDS equals n − LNDS length, which is never
// larger than the count implied by removing one element of every inversion.
func TestLNDSRemovalNoLargerThanInversionBound(t *testing.T) {
	f := func(seq []int32) bool {
		n := len(seq)
		removed := n - LNDSLength(seq)
		_, inv := InversionCounts(seq, 32)
		if inv == 0 {
			return removed == 0
		}
		return removed >= 1 && int64(removed) <= inv
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(args []reflect.Value, rng *rand.Rand) {
		args[0] = reflect.ValueOf(randomSeq(rng, rng.Intn(40), 32))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestScratchLNDSMatchesLNDS pins the scratch form to the allocating form:
// identical keep indices on random sequences, and zero steady-state allocs.
func TestScratchLNDSMatchesLNDS(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var s Scratch
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(200)
		seq := make([]int32, n)
		for i := range seq {
			seq[i] = int32(rng.Intn(1 + rng.Intn(50)))
		}
		want := LNDS(seq)
		got := s.LNDS(seq)
		if len(got) != len(want) {
			t.Fatalf("iter %d: scratch LNDS length %d, want %d", iter, len(got), len(want))
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("iter %d: scratch LNDS[%d] = %d, want %d", iter, k, got[k], want[k])
			}
		}
	}
	seq := make([]int32, 2048)
	for i := range seq {
		seq[i] = int32(rng.Intn(64))
	}
	s.LNDS(seq) // warm
	if n := testing.AllocsPerRun(20, func() { s.LNDS(seq) }); n != 0 {
		t.Errorf("scratch LNDS allocates %.1f times per call, want 0", n)
	}
}

// checkWithin verifies one LNDSLenWithin answer against the brute-force
// LNDS: an accepted sequence reports its exact LNDS length; a rejected one
// needs more than limit removals, and the prefix it stopped at needs exactly
// limit+1 (so limit+1 is a certain lower bound on the whole's removals).
func checkWithin(t *testing.T, seq []int32, limit, kept int, ok bool) {
	t.Helper()
	want := lndsLengthBrute(seq)
	removals := len(seq) - want
	if ok != (removals <= limit) {
		t.Fatalf("seq %v limit %d: ok = %v, removals %d", seq, limit, ok, removals)
	}
	if ok {
		if kept != want {
			t.Fatalf("seq %v limit %d: kept %d, want %d", seq, limit, kept, want)
		}
		return
	}
	if limit < 0 {
		if kept != 0 {
			t.Fatalf("seq %v limit %d: kept %d before the first element", seq, limit, kept)
		}
		return
	}
	p := kept + limit + 1
	if p > len(seq) || lndsLengthBrute(seq[:p]) != kept {
		t.Fatalf("seq %v limit %d: stop (kept %d) is not a prefix needing limit+1 removals", seq, limit, kept)
	}
}

// TestLNDSLenWithinMatchesBruteForce runs the bounded kernel on random
// sequences with heavy ties at the limits that matter: −1, 0, exactly the
// true removals (accepted) and one below (rejected at the last moment).
func TestLNDSLenWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	var s Scratch
	for iter := 0; iter < 500; iter++ {
		seq := randomSeq(rng, rng.Intn(60), 1+rng.Intn(6))
		removals := len(seq) - LNDSLength(seq)
		if got := len(seq) - len(LNDS(seq)); got != removals {
			t.Fatalf("seq %v: LNDSLength and LNDS disagree (%d vs %d removals)", seq, removals, got)
		}
		for _, limit := range []int{-1, 0, removals, removals - 1} {
			kept, ok := s.LNDSLenWithin(seq, limit)
			checkWithin(t, seq, limit, kept, ok)
		}
	}
}

// TestKeysLNDSLenWithin pins the key form: the value is the key's low 32
// bits whatever the high bits hold, and desc measures the longest
// non-increasing run of the low bits — for flip − B keys, the LNDS of B.
func TestKeysLNDSLenWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	var s Scratch
	for iter := 0; iter < 300; iter++ {
		seq := randomSeq(rng, rng.Intn(80), 1+rng.Intn(8))
		const flip = 7
		asc := make([]uint64, len(seq))
		desc := make([]uint64, len(seq))
		for i, b := range seq {
			hi := uint64(rng.Intn(1<<20)) << 32
			asc[i] = hi | uint64(uint32(b))
			desc[i] = hi | uint64(uint32(flip-b))
		}
		want := lndsLengthBrute(seq)
		for _, limit := range []int{len(seq), len(seq) - want, len(seq) - want - 1} {
			for name, keys := range map[string][]uint64{"asc": asc, "desc": desc} {
				kept, ok := s.KeysLNDSLenWithin(keys, name == "desc", limit)
				checkWithin(t, seq, limit, kept, ok)
			}
		}
	}
}

// TestLNDSLenWithinAllocFree: a warm scratch runs the kernel without
// allocating, and it never touches the back-pointer buffers.
func TestLNDSLenWithinAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	seq := randomSeq(rng, 4096, 64)
	var s Scratch
	s.LNDSLenWithin(seq, len(seq)) // warm
	if n := testing.AllocsPerRun(20, func() { s.LNDSLenWithin(seq, len(seq)) }); n != 0 {
		t.Errorf("LNDSLenWithin allocates %.1f times per call, want 0", n)
	}
	if s.prev != nil || s.keep != nil {
		t.Error("the length kernel allocated back-pointer buffers")
	}
}
