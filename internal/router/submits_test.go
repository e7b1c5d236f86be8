package router

import "testing"

// TestSubmitMemory pins the failover memory's contract: get refreshes
// recency, so the bound evicts the least recently used gid; a repeated put
// replaces the record (failover rewrites where the job lives); and an
// oversized body is not remembered.
func TestSubmitMemory(t *testing.T) {
	sm := newSubmitMemory(2)
	rec := func(replica int, localID string) submitRecord {
		return submitRecord{body: []byte(`{"datasetId":"d"}`), datasetID: "d", replica: replica, localID: localID}
	}
	sm.put("g1", rec(0, "job-1"))
	sm.put("g2", rec(0, "job-2"))
	if _, ok := sm.get("g1"); !ok {
		t.Fatal("g1 not remembered")
	}
	sm.put("g3", rec(1, "job-3"))
	if _, ok := sm.get("g2"); ok {
		t.Error("g2 should have been evicted as least recently used")
	}
	if _, ok := sm.get("g1"); !ok {
		t.Error("g1 was used after g2 and should have survived")
	}

	sm.put("g3", rec(2, "job-9"))
	if r, ok := sm.get("g3"); !ok || r.replica != 2 || r.localID != "job-9" {
		t.Errorf("g3 after failover = (%+v, %v), want replica 2 job-9", r, ok)
	}
	if _, ok := sm.get("g1"); !ok {
		t.Error("replacing g3 evicted g1")
	}

	big := rec(0, "job-4")
	big.body = make([]byte, maxRememberedBody+1)
	sm.put("g4", big)
	if _, ok := sm.get("g4"); ok {
		t.Error("a body over maxRememberedBody was remembered")
	}
	for _, gid := range []string{"g1", "g3"} {
		if _, ok := sm.get(gid); !ok {
			t.Errorf("refusing an oversized body evicted %s", gid)
		}
	}
}
