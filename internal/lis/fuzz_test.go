package lis

import "testing"

// FuzzLNDSWithin checks the bounded length kernel against the back-pointer
// LNDS on arbitrary sequences (one value per byte, folded into a small
// domain so ties are common) and limits: an accepted sequence reports the
// exact LNDS length, a rejected one really needs more than limit removals.
// Short inputs are also checked against the quadratic reference.
func FuzzLNDSWithin(f *testing.F) {
	f.Add([]byte{}, 0, uint8(4))
	f.Add([]byte{3, 1, 2, 2, 0, 5}, 1, uint8(4))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}, -1, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, limit int, dom uint8) {
		seq := make([]int32, len(data))
		for i, c := range data {
			seq[i] = int32(c) % (int32(dom) + 1)
		}
		var s Scratch
		kept, ok := s.LNDSLenWithin(seq, limit)
		want := len(LNDS(seq))
		if ok != (len(seq)-want <= limit) {
			t.Fatalf("limit %d: ok = %v, removals %d", limit, ok, len(seq)-want)
		}
		if ok && kept != want {
			t.Fatalf("kept %d, want %d", kept, want)
		}
		if !ok && kept > want {
			t.Fatalf("stopped prefix keeps %d > whole %d", kept, want)
		}
		if len(seq) <= 64 {
			checkWithin(t, seq, limit, kept, ok)
		}
	})
}
