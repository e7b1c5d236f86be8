package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"aod/internal/service"
)

// atomicString is atomic.Value constrained to strings, with a zero-value
// Load of "".
type atomicString struct{ v atomic.Value }

func (a *atomicString) Store(s string) { a.v.Store(s) }
func (a *atomicString) Load() string {
	s, _ := a.v.Load().(string)
	return s
}

// replica is the router's view of one backend aodserver: its base URL plus
// the last probe's observations. Health is written from two directions —
// the active probe loop and passive marking when a proxied RPC hits a
// connect error — and read lock-free on every routing decision.
type replica struct {
	idx  int
	base string // http://host:port, no trailing slash

	up         atomic.Bool
	draining   atomic.Bool
	queuedJobs atomic.Int64
	queueAgeNs atomic.Int64
	lastErr    atomicString
	probedAt   atomic.Int64 // unix nanos of the last completed probe
}

func (rp *replica) name() string { return "r" + strconv.Itoa(rp.idx) }

// replicaView is the /routerz JSON for one replica.
type replicaView struct {
	Name             string `json:"name"`
	Base             string `json:"base"`
	Up               bool   `json:"up"`
	Draining         bool   `json:"draining,omitempty"`
	QueuedJobs       int64  `json:"queuedJobs"`
	OldestQueueAgeNs int64  `json:"oldestQueueAgeNs"`
	LastError        string `json:"lastError,omitempty"`
	LastProbeUnixNs  int64  `json:"lastProbeUnixNs,omitempty"`
}

func (rp *replica) view() replicaView {
	return replicaView{
		Name:             rp.name(),
		Base:             rp.base,
		Up:               rp.up.Load(),
		Draining:         rp.draining.Load(),
		QueuedJobs:       rp.queuedJobs.Load(),
		OldestQueueAgeNs: rp.queueAgeNs.Load(),
		LastError:        rp.lastErr.Load(),
		LastProbeUnixNs:  rp.probedAt.Load(),
	}
}

// fnv1a64 is the rendezvous hash base: tiny, allocation-free, and stable
// across processes (routing must agree between router restarts so replica
// result caches stay warm for their home keys).
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// candidates orders the replicas for a routing key by rendezvous
// (highest-random-weight) hashing: every key has a stable home replica, and
// when that home disappears the key's traffic redistributes evenly across
// the survivors instead of all landing on one neighbour. Healthy replicas
// come first (in rendezvous order), unhealthy ones trail as a last resort —
// a stale probe shouldn't turn a reachable cluster into a refusal.
func (rt *Router) candidates(key string) []*replica {
	type scored struct {
		rp *replica
		w  uint64
	}
	sc := make([]scored, 0, len(rt.replicas))
	for _, rp := range rt.replicas {
		sc = append(sc, scored{rp, fnv1a64(key + "|" + rp.base)})
	}
	sort.Slice(sc, func(i, j int) bool {
		if sc[i].w != sc[j].w {
			return sc[i].w > sc[j].w
		}
		return sc[i].rp.idx < sc[j].rp.idx
	})
	out := make([]*replica, 0, len(sc))
	for _, s := range sc {
		if s.rp.up.Load() {
			out = append(out, s.rp)
		}
	}
	for _, s := range sc {
		if !s.rp.up.Load() {
			out = append(out, s.rp)
		}
	}
	return out
}

// orderedHealthyFirst returns every replica, healthy ones first, in index
// order — the fan-out order for uploads and list merges where no routing
// key applies.
func (rt *Router) orderedHealthyFirst() []*replica {
	out := make([]*replica, 0, len(rt.replicas))
	for _, rp := range rt.replicas {
		if rp.up.Load() {
			out = append(out, rp)
		}
	}
	for _, rp := range rt.replicas {
		if !rp.up.Load() {
			out = append(out, rp)
		}
	}
	return out
}

// probeLoop actively probes one replica's /healthz until Close. The first
// probe fires immediately so a router pointed at a dead replica learns so
// within one round-trip, not one interval.
func (rt *Router) probeLoop(rp *replica) {
	defer rt.wg.Done()
	rt.probe(rp)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probe(rp)
		}
	}
}

// probe fetches /healthz once and folds the result into the replica state.
// A draining replica answers 503 with a valid body: it is marked unready
// (no new work routes to it) but its queue observations still update, so
// /routerz keeps showing the drain progressing.
func (rt *Router) probe(rp *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.base+"/healthz", nil)
	if err != nil {
		return
	}
	// Stamped last, once the result is folded in: a reader that sees the
	// stamp sees the probe's effect on the replica state.
	defer func() { rp.probedAt.Store(rt.now().UnixNano()) }()
	resp, err := rt.transport.RoundTrip(req)
	if err != nil {
		rt.setUp(rp, false, err.Error())
		return
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	var hv service.HealthView
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hv); derr == nil {
		rp.queuedJobs.Store(int64(hv.QueuedJobs))
		rp.queueAgeNs.Store(hv.OldestQueueAgeNs)
		rp.draining.Store(hv.Status == "draining")
	}
	if resp.StatusCode != http.StatusOK {
		rt.setUp(rp, false, "healthz "+resp.Status)
		return
	}
	rt.setUp(rp, true, "")
}

// setUp flips a replica's readiness, logging only transitions — per-probe
// logs at 2 Hz per replica would drown everything else.
func (rt *Router) setUp(rp *replica, up bool, reason string) {
	was := rp.up.Swap(up)
	rp.lastErr.Store(reason)
	if was == up {
		return
	}
	if up {
		rt.logf("replica %s (%s) up", rp.name(), rp.base)
	} else {
		rt.logf("replica %s (%s) down: %s", rp.name(), rp.base, reason)
	}
}
