// Package lis implements the sequence algorithms underlying approximate
// order-compatibility validation: longest non-decreasing subsequence (LNDS)
// computation in O(n log n) after Fredman's dynamic-programming formulation
// [Fredman 1975] (length-only and budget-bounded, for validity verdicts),
// LNDS reconstruction via back-pointers (for minimal removal
// sets, Theorem 3.3 of the paper), strictly-increasing LIS (for the LIS-DEC
// reduction in the optimality proof, Theorem 3.4), and per-element inversion
// counting with a Fenwick tree (the swap counts used by the iterative
// validator, Algorithm 1).
package lis

// LNDSLength returns the length of a longest non-decreasing subsequence of
// seq in O(n log n) time and O(n) space. It is the allocating, unbounded
// form of Scratch.LNDSLenWithin.
func LNDSLength(seq []int32) int {
	var s Scratch
	kept, _ := s.LNDSLenWithin(seq, len(seq))
	return kept
}

// LISLength returns the length of a longest strictly increasing subsequence
// of seq in O(n log n).
func LISLength(seq []int32) int {
	tails := make([]int32, 0, 16)
	for _, v := range seq {
		// Lower bound: the first tail >= v is replaced, so equal values can
		// never extend a subsequence.
		lo, hi := 0, len(tails)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if tails[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(tails) {
			tails = append(tails, v)
		} else {
			tails[lo] = v
		}
	}
	return len(tails)
}

// LNDS returns the indexes (ascending) of one longest non-decreasing
// subsequence of seq, in O(n log n) time and O(n) space. The complement of
// the returned index set is a minimal removal set making seq non-decreasing.
// It is the allocating convenience form of Scratch.LNDS.
func LNDS(seq []int32) []int {
	var s Scratch
	keep := s.LNDS(seq)
	if keep == nil {
		return nil
	}
	out := make([]int, len(keep))
	for i, k := range keep {
		out[i] = int(k)
	}
	return out
}

// Scratch holds the reusable state of the scratch LNDS form, so validation
// loops can reconstruct longest non-decreasing subsequences without
// allocating per call. The zero value is ready to use; not safe for
// concurrent use.
type Scratch struct {
	tailsIdx []int32
	prev     []int32
	keep     []int32
}

// LNDS computes the ascending indexes of one longest non-decreasing
// subsequence of seq, reusing the scratch buffers: the result aliases the
// scratch and is valid only until the next call. tailsIdx[k] tracks the
// index of the current tail of a length-k+1 subsequence; prev[i] is the
// back-pointer used to reconstruct the kept index set.
func (s *Scratch) LNDS(seq []int32) []int32 {
	n := len(seq)
	if n == 0 {
		return nil
	}
	if cap(s.prev) < n {
		s.prev = make([]int32, n)
		s.tailsIdx = make([]int32, 0, n)
		s.keep = make([]int32, n)
	}
	prev := s.prev[:n]
	tailsIdx := s.tailsIdx[:0]
	for i, v := range seq {
		lo, hi := 0, len(tailsIdx)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if seq[tailsIdx[mid]] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 {
			prev[i] = tailsIdx[lo-1]
		} else {
			prev[i] = -1
		}
		if lo == len(tailsIdx) {
			tailsIdx = append(tailsIdx, int32(i))
		} else {
			tailsIdx[lo] = int32(i)
		}
	}
	s.tailsIdx = tailsIdx
	out := s.keep[:len(tailsIdx)]
	at := tailsIdx[len(tailsIdx)-1]
	for k := len(tailsIdx) - 1; k >= 0; k-- {
		out[k] = at
		at = prev[at]
	}
	return out
}

// LNDSLenWithin returns kept, the length of a longest non-decreasing
// subsequence of seq, and ok = true when seq needs at most limit removals
// (len(seq) − kept ≤ limit) to become non-decreasing. Otherwise it stops at
// the first prefix that needs limit+1 removals and returns ok = false with
// kept the LNDS length of that prefix (a negative limit stops before the
// first element). Stopping there is sound: any subsequence of the whole
// restricts to one of the prefix, so removals(seq) ≥ p − LNDS(prefix) for
// every prefix of length p. It keeps only the tail values, no back-pointers,
// in the scratch's tail buffer.
func (s *Scratch) LNDSLenWithin(seq []int32, limit int) (kept int, ok bool) {
	return lndsLenWithin(s, seq, 0, limit)
}

// KeysLNDSLenWithin is LNDSLenWithin over the values packed into the low 32
// bits of keys (the high bits are ignored), read as int32. With desc the
// values are complemented first, which reverses their order: the kernel
// then measures the longest non-increasing subsequence of the low bits.
// Validators pass their sorted (A << 32 | B-key) keys directly, so no
// projection is decoded.
func (s *Scratch) KeysLNDSLenWithin(keys []uint64, desc bool, limit int) (kept int, ok bool) {
	var mask uint32
	if desc {
		mask = ^uint32(0)
	}
	return lndsLenWithin(s, keys, mask, limit)
}

// lndsLenWithin is the one length kernel behind LNDSLenWithin and
// KeysLNDSLenWithin: element e has value int32(uint32(e) ^ mask).
func lndsLenWithin[E int32 | uint64](s *Scratch, seq []E, mask uint32, limit int) (kept int, ok bool) {
	if limit < 0 {
		return 0, false
	}
	if cap(s.tailsIdx) < len(seq) {
		s.tailsIdx = make([]int32, 0, len(seq))
	}
	// tails[k] = smallest possible last value of a non-decreasing
	// subsequence of length k+1; it is itself non-decreasing.
	tails := s.tailsIdx[:0]
	removed := 0 // prefix length − len(tails)
	for _, e := range seq {
		v := int32(uint32(e) ^ mask)
		n := len(tails)
		if n == 0 || tails[n-1] <= v {
			tails = append(tails, v)
			continue
		}
		// Replace the first tail strictly greater than v (upper bound):
		// equal values may extend a subsequence.
		lo, hi := 0, n-1
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if tails[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		tails[lo] = v
		if removed++; removed > limit {
			return len(tails), false
		}
	}
	return len(tails), true
}

// Fenwick is a binary indexed tree over values 0..size-1 supporting point
// increments and prefix-sum queries in O(log size).
type Fenwick struct {
	tree []int32
}

// NewFenwick returns a Fenwick tree over the value domain [0, size).
func NewFenwick(size int) *Fenwick {
	return &Fenwick{tree: make([]int32, size+1)}
}

// Add increments the count of value v by delta.
func (f *Fenwick) Add(v int32, delta int32) {
	for i := int(v) + 1; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// PrefixSum returns the total count of values <= v.
func (f *Fenwick) PrefixSum(v int32) int32 {
	if v < 0 {
		return 0
	}
	var s int32
	i := int(v) + 1
	if i >= len(f.tree) {
		i = len(f.tree) - 1
	}
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// Total returns the total count of all values.
func (f *Fenwick) Total() int32 {
	return f.PrefixSum(int32(len(f.tree) - 2))
}

// Reset zeroes the tree for reuse.
func (f *Fenwick) Reset() {
	clear(f.tree)
}

// InversionCounts returns, for each position i of seq, the number of strict
// inversions it participates in — pairs (i, j) with i < j and seq[j] < seq[i],
// counted from both sides — together with the total number of inversion
// pairs. maxRank must be strictly greater than every value in seq.
//
// When seq is the B-projection of a class sorted by (A asc, B asc), these
// counts are exactly the per-tuple swap counts of Algorithm 1 (ties in A are
// B-ascending and therefore contribute no inversions). Runtime O(n log n).
// It is the allocating convenience form of InvScratch.Counts.
func InversionCounts(seq []int32, maxRank int32) (perElem []int32, total int64) {
	var s InvScratch
	return s.Counts(seq, maxRank)
}

// InvScratch holds the reusable state of the scratch inversion-counting
// form — the per-element count buffer and the Fenwick tree — so validation
// loops can compute swap counts without allocating per class. The zero value
// is ready to use; not safe for concurrent use.
type InvScratch struct {
	per []int32
	ft  Fenwick
}

// Counts is InversionCounts reusing the scratch buffers: the returned slice
// aliases the scratch and is valid only until the next call.
func (s *InvScratch) Counts(seq []int32, maxRank int32) (perElem []int32, total int64) {
	n := len(seq)
	if s.per == nil || cap(s.per) < n {
		// Allocated even for n == 0 (a zero-size make is heap-free), so the
		// result is a non-nil empty slice like the pre-scratch form returned.
		s.per = make([]int32, n)
	}
	perElem = s.per[:n]
	clear(perElem)
	if cap(s.ft.tree) < int(maxRank)+1 {
		s.ft.tree = make([]int32, maxRank+1)
	} else {
		s.ft.tree = s.ft.tree[:maxRank+1]
		s.ft.Reset()
	}
	ft := &s.ft
	// Left-to-right: count earlier elements strictly greater than seq[i].
	for i, v := range seq {
		seen := int32(i)
		leq := ft.PrefixSum(v)
		perElem[i] += seen - leq // strictly greater among the i earlier
		ft.Add(v, 1)
	}
	ft.Reset()
	// Right-to-left: count later elements strictly less than seq[i].
	for i := n - 1; i >= 0; i-- {
		v := seq[i]
		less := ft.PrefixSum(v - 1)
		perElem[i] += less
		total += int64(less)
		ft.Add(v, 1)
	}
	return perElem, total
}
