package router

import "aod/internal/lru"

// submitRecord is everything needed to replay one job submission on a
// different replica: the original request body (it carries the dataset id
// and canonicalized options, which the replicas hash into the same dedup
// key), plus where the job currently lives. Replay is safe precisely
// because submits are idempotent — a replica that already holds the report
// (its own cache or a peer's) answers without recomputing.
type submitRecord struct {
	body      []byte
	datasetID string
	replica   int    // index of the replica currently hosting the job
	localID   string // the job id on that replica
}

// maxRememberedBody bounds a remembered submit body; submit specs are a
// dataset id plus options, so anything larger is pathological and simply
// loses failover (the job itself is unaffected).
const maxRememberedBody = 64 << 10

// submitMemory is an LRU of gid → submitRecord. It is the only state the
// router holds per job, it is advisory (a miss degrades failover, never
// correctness), and it is bounded — the router stays restartable and
// effectively stateless.
type submitMemory struct {
	*lru.Cache[string, submitRecord]
}

func newSubmitMemory(capacity int) submitMemory {
	return submitMemory{lru.New[string, submitRecord](int64(capacity), nil)}
}

func (sm submitMemory) put(gid string, rec submitRecord) {
	if len(rec.body) <= maxRememberedBody {
		sm.Put(gid, rec)
	}
}

func (sm submitMemory) get(gid string) (submitRecord, bool) { return sm.Get(gid) }
