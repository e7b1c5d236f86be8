package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aod"
	"aod/internal/lru"
	"aod/internal/store"
)

// ErrRegistryFull is returned by Registry.Add when MaxDatasets is reached
// (in-memory mode only; a persistent registry evicts to disk instead).
var ErrRegistryFull = errors.New("service: dataset registry is full")

// ErrNoDataset is returned when a dataset id is unknown.
var ErrNoDataset = errors.New("service: no such dataset")

// ErrDatasetUnavailable is returned when a registered dataset's persisted
// payload cannot be reloaded (missing or quarantined as corrupt). The record
// is dropped; re-uploading the same content restores it.
var ErrDatasetUnavailable = errors.New("service: dataset unavailable")

// DatasetInfo is the registry's public record of an uploaded dataset.
type DatasetInfo struct {
	// ID is the first 12 hex digits of the fingerprint — stable across
	// re-uploads of identical content, which deduplicates the registry.
	ID string `json:"id"`
	// Name is the client-supplied display name (optional).
	Name string `json:"name,omitempty"`
	// Fingerprint is the full content hash (see aod.Dataset.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	Rows        int    `json:"rows"`
	Cols        int    `json:"cols"`
	// Columns are the attribute names in schema order.
	Columns []string `json:"columns"`
	// Types are the column kinds ("int", "float", "string") in schema order.
	Types     []string  `json:"types,omitempty"`
	CreatedAt time.Time `json:"createdAt"`
}

// Registry holds uploaded datasets keyed by content fingerprint. Uploading
// the same content twice returns the original record, so clients can submit
// a dataset once and query many (threshold, algorithm) configurations — or
// re-upload idempotently — without growing server memory.
//
// With a Store backend the registry is durable: uploads are written through
// to disk before they are acknowledged, the metadata manifest is reloaded on
// startup, and payloads load lazily on first use. The MaxDatasets bound then
// caps the *resident* set rather than the registry: the least recently used
// payload is evicted from memory (its bytes stay on disk) instead of the
// upload being refused.
//
// One *aod.Dataset may be shared by any number of concurrent discovery
// jobs: datasets are immutable by construction (builders copy their
// inputs), and the only lazily built internal state — the descending column
// views behind bidirectional discovery — is published atomically
// (aod.Dataset.Freeze can pre-materialize it, at roughly double the column
// memory; the registry deliberately does not, so non-bidirectional
// workloads never pay for it).
type Registry struct {
	mu    sync.RWMutex
	byID  map[string]*storedDataset
	order []string // insertion order, for stable listings
	max   int      // 0 = unbounded; bounds residency when st != nil
	st    *store.Store
	// resident holds the in-memory payloads by id: every payload in
	// in-memory mode (unbounded; Add enforces max), the max most recently
	// used in persistent mode, where evicting only drops the memory copy.
	// Puts and removals happen under mu, so membership is stable for a
	// holder of mu.RLock (a Get there only refreshes recency).
	resident *lru.Cache[string, *aod.Dataset]
}

type storedDataset struct {
	info DatasetInfo
	// loading is non-nil while one goroutine reloads the payload from disk
	// outside the registry lock; others wait on it and re-check. pinned
	// holds a payload Add is still writing through: it enters resident only
	// once it is on disk, so it can never be evicted before then.
	loading chan struct{}
	pinned  *aod.Dataset
}

// NewRegistry returns a registry bounded to max datasets (0 = unbounded).
// With a non-nil store the registry recovers the store's manifest: every
// previously uploaded dataset is listed immediately and its payload loads
// from disk on first use.
func NewRegistry(max int, st *store.Store) *Registry {
	residentMax := 0
	if st != nil {
		residentMax = max
	}
	r := &Registry{byID: make(map[string]*storedDataset), max: max, st: st,
		resident: lru.New[string, *aod.Dataset](int64(residentMax), nil)}
	if st != nil {
		for _, m := range st.Datasets() {
			info := DatasetInfo{
				ID:          m.ID,
				Name:        m.Name,
				Fingerprint: m.Fingerprint,
				Rows:        m.Rows,
				Cols:        m.Cols,
				Columns:     m.Columns,
				Types:       m.Types,
				CreatedAt:   m.CreatedAt,
			}
			if _, dup := r.byID[info.ID]; dup {
				continue // manifest damage; first entry wins
			}
			r.byID[info.ID] = &storedDataset{info: info}
			r.order = append(r.order, info.ID)
		}
	}
	return r
}

// Add registers the dataset under a fingerprint-derived id and returns its
// record. Content already present is deduplicated: the existing record is
// returned with created=false and the new name (if any) is ignored. With a
// store backend the dataset is durable on disk before Add returns; a
// persistence failure fails (and rolls back) the registration.
//
// Disk work happens outside the registry lock: the entry is inserted
// pinned first, so lookups proceed during the payload write.
// The one visible consequence: a concurrent identical upload can observe
// the record before its durability is final; if the write then fails, the
// record is rolled back and later use reports the dataset as unknown —
// clients recover by re-uploading.
func (r *Registry) Add(name string, ds *aod.Dataset) (DatasetInfo, bool, error) {
	fp := ds.Fingerprint()
	id := fp[:12]

	r.mu.Lock()
	if s, ok := r.byID[id]; ok {
		if s.info.Fingerprint != fp {
			r.mu.Unlock()
			// A 48-bit prefix collision between distinct contents
			// (~2^-48 per pair): refuse rather than silently alias the
			// stored dataset.
			return DatasetInfo{}, false, fmt.Errorf(
				"service: dataset id collision: %q already maps to fingerprint %s", id, s.info.Fingerprint)
		}
		if r.payloadLocked(s) != nil {
			// Idempotent re-upload of resident content: nothing to do (the
			// freshly parsed copy is discarded unfrozen).
			info := s.info
			r.mu.Unlock()
			return info, false, nil
		}
		// Evicted (or never loaded since recovery) and the client just
		// handed us the identical content: make it resident for free — and
		// re-persist, which self-heals a payload file lost to quarantine or
		// external corruption.
		s.pinned = ds
		r.mu.Unlock()
		return r.finishPersist(s, ds, false)
	}
	if r.st == nil && r.max > 0 && len(r.byID) >= r.max {
		r.mu.Unlock()
		return DatasetInfo{}, false, ErrRegistryFull
	}
	info := DatasetInfo{
		ID:          id,
		Name:        name,
		Fingerprint: fp,
		Rows:        ds.NumRows(),
		Cols:        ds.NumCols(),
		Columns:     ds.ColumnNames(),
		Types:       ds.ColumnTypes(),
		CreatedAt:   time.Now().UTC(),
	}
	s := &storedDataset{info: info, pinned: ds}
	r.byID[id] = s
	r.order = append(r.order, id)
	r.mu.Unlock()
	return r.finishPersist(s, ds, true)
}

// finishPersist writes the payload through to the store (outside the
// registry lock), then unpins it into the resident set, which evicts the
// least recently used payload past the bound. On failure the registration
// is rolled back so Add never acknowledges durability it does not have.
func (r *Registry) finishPersist(s *storedDataset, ds *aod.Dataset, created bool) (DatasetInfo, bool, error) {
	var err error
	if r.st != nil {
		err = r.st.PutDataset(metaOf(s.info), ds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.pinned = nil // on failure, back to the evicted state it was found in
	if err != nil {
		if created {
			r.dropLocked(s.info.ID)
		}
		return DatasetInfo{}, false, err
	}
	r.resident.Put(s.info.ID, ds)
	return s.info, created, nil
}

// payloadLocked returns the entry's in-memory payload, or nil while it is
// evicted to disk. Caller holds r.mu (read or write).
func (r *Registry) payloadLocked(s *storedDataset) *aod.Dataset {
	if ds, ok := r.resident.Get(s.info.ID); ok {
		return ds
	}
	return s.pinned
}

// dropLocked removes the record. Caller holds r.mu.
func (r *Registry) dropLocked(id string) {
	delete(r.byID, id)
	r.resident.Remove(id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// Get returns the dataset and its record, lazily reloading the payload from
// the store when it is not resident. A payload that fails to reload
// (quarantined as corrupt, or missing) drops the record and returns
// ErrDatasetUnavailable.
//
// The disk reload runs outside the registry lock — a cold multi-second load
// must not stall submissions, listings, or other jobs — with a per-entry
// flight so concurrent users of one cold dataset trigger exactly one read.
func (r *Registry) Get(id string) (*aod.Dataset, DatasetInfo, error) {
	for {
		// Hot path: a resident payload needs only the shared lock (the
		// resident cache refreshes its recency under its own).
		r.mu.RLock()
		s, ok := r.byID[id]
		var ds *aod.Dataset
		if ok {
			ds = r.payloadLocked(s)
		}
		r.mu.RUnlock()
		if !ok {
			return nil, DatasetInfo{}, fmt.Errorf("%w: %q", ErrNoDataset, id)
		}
		if ds != nil {
			return ds, s.info, nil
		}

		r.mu.Lock()
		if r.byID[id] != s || r.payloadLocked(s) != nil {
			r.mu.Unlock()
			continue // changed while unlocked: look again
		}
		if ch := s.loading; ch != nil {
			r.mu.Unlock()
			<-ch // another goroutine is reloading this payload
			continue
		}
		ch := make(chan struct{})
		s.loading = ch
		meta := metaOf(s.info)
		r.mu.Unlock()

		ds, err := r.st.LoadDataset(meta)
		r.mu.Lock()
		s.loading = nil
		if err != nil {
			// The store has already quarantined the payload and dropped it
			// from the manifest; mirror that in the live registry — unless a
			// concurrent re-upload resurrected the entry (pinned by Add)
			// while we were reading the doomed file, in which case the
			// fresh registration wins and this Get simply retries.
			if r.payloadLocked(s) != nil {
				r.mu.Unlock()
				close(ch)
				continue
			}
			r.dropLocked(id)
			r.mu.Unlock()
			close(ch)
			return nil, DatasetInfo{}, fmt.Errorf("%w: %q: %v", ErrDatasetUnavailable, id, err)
		}
		r.resident.Put(id, ds)
		r.mu.Unlock()
		close(ch)
		return ds, s.info, nil
	}
}

// Info returns the dataset's record without touching its payload — no disk
// load, no recency bump. Use it for validation and listings.
func (r *Registry) Info(id string) (DatasetInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byID[id]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: %q", ErrNoDataset, id)
	}
	return s.info, nil
}

// List returns all records in upload order.
func (r *Registry) List() []DatasetInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id].info)
	}
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// Resident returns the number of datasets whose payload is currently held
// in memory (equal to Len in in-memory mode), not counting payloads Add is
// still writing through.
func (r *Registry) Resident() int { return r.resident.Len() }

// metaOf converts the public record to the store's durable metadata.
func metaOf(info DatasetInfo) store.DatasetMeta {
	return store.DatasetMeta{
		ID:          info.ID,
		Name:        info.Name,
		Fingerprint: info.Fingerprint,
		Rows:        info.Rows,
		Cols:        info.Cols,
		Columns:     info.Columns,
		Types:       info.Types,
		CreatedAt:   info.CreatedAt,
	}
}
