package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aod/internal/telemetry"
)

// Layer names of the self-time rollup, in report order.
var layers = []string{"aod", "core", "partition", "validate", "dataset", "store", "service", "shard", "runtime"}

// span is one recorded interval: around a call into a layer (recorded by the
// benchmark) or imported from the program's own trace. Times are offsets on
// the tracer's monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    int64  `json:"job"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced operations pay one nil check.
type tracer struct {
	base time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// job starts the span set of one operation; nil on a nil tracer.
func (t *tracer) job() *jobSpans {
	if t == nil {
		return nil
	}
	return &jobSpans{t: t, id: t.next.Add(1)}
}

// all returns every committed span.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// jobSpans collects one operation's spans; commit hands them to the tracer.
type jobSpans struct {
	t     *tracer
	id    int64
	spans []span
}

// add records a finished span and returns its ID.
func (j *jobSpans) add(parent int64, name, layer string, start, end time.Time) int64 {
	id := j.t.next.Add(1)
	j.spans = append(j.spans, span{ID: id, Parent: parent, Job: j.id, Name: name, Layer: layer,
		Start: int64(start.Sub(j.t.base)), End: int64(end.Sub(j.t.base))})
	return id
}

// importTrace copies the program's spans under parent. origin is the
// absolute time the program trace's offsets count from. It returns the IDs
// the program's span IDs were given.
func (j *jobSpans) importTrace(parent int64, origin time.Time, spans []telemetry.Span) map[telemetry.SpanID]int64 {
	ids := make(map[telemetry.SpanID]int64, len(spans))
	// In start order a parent precedes its children; orphans (parent never
	// committed) hang under parent.
	sort.SliceStable(spans, func(i, k int) bool { return spans[i].Start < spans[k].Start })
	for _, s := range spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		start := origin.Add(s.Start)
		ids[s.ID] = j.add(p, s.Name, programLayer(s.Name), start, start.Add(s.Duration))
	}
	return ids
}

// insertPipeline places a core-layer span of length d at the start of
// parent and moves parent's children under it. The facade runs the
// discovery pipeline and then builds the report; the program spans only the
// pipeline's stages, so without this span the lattice work between levels
// would count as facade time.
func (j *jobSpans) insertPipeline(parent int64, d time.Duration) {
	var start int64
	for _, s := range j.spans {
		if s.ID == parent {
			start = s.Start
		}
	}
	id := j.t.next.Add(1)
	for i := range j.spans {
		if j.spans[i].Parent == parent {
			j.spans[i].Parent = id
		}
	}
	j.spans = append(j.spans, span{ID: id, Parent: parent, Job: j.id, Name: "pipeline", Layer: "core", Start: start, End: start + int64(d)})
}

// commit hands the spans to the tracer.
func (j *jobSpans) commit() {
	j.t.mu.Lock()
	defer j.t.mu.Unlock()
	j.t.spans = append(j.t.spans, j.spans...)
}

// flatten converts a JSON span tree into spans, for traces fetched through
// the service's JobTrace.
func flatten(nodes []*telemetry.TreeNode) []telemetry.Span {
	var out []telemetry.Span
	var walk func(n *telemetry.TreeNode)
	walk = func(n *telemetry.TreeNode) {
		out = append(out, n.Span)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
	return out
}

// programLayer maps the program's own span names to layers.
func programLayer(name string) string {
	switch name {
	case "partition-build", "prepare-partitions":
		return "partition"
	case "level":
		return "core"
	case "rpc", "worker-exec":
		return "shard"
	case "discover":
		return "aod"
	case "dataset-load":
		return "dataset"
	default: // job, queue-wait, cache-lookup
		return "service"
	}
}

// selfTimes splits the wall time of one job's span tree across its spans:
// every instant goes, in equal parts, to the innermost spans open at that
// instant (open spans with no open child). Children are clipped to their
// parent, so the result sums exactly to the root's duration. The returned
// map is keyed by span ID.
func selfTimes(spans []span) map[int64]float64 {
	spans = reattach(spans)
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	// Clip every span into its parent's interval, parents first.
	clipped := make(map[int64][2]int64, len(spans))
	var clip func(s *span) [2]int64
	clip = func(s *span) [2]int64 {
		if c, ok := clipped[s.ID]; ok {
			return c
		}
		c := [2]int64{s.Start, s.End}
		if p, ok := byID[s.Parent]; ok && p != s {
			pc := clip(p)
			c[0] = max(c[0], pc[0])
			c[1] = min(c[1], pc[1])
		}
		if c[1] < c[0] {
			c[1] = c[0]
		}
		clipped[s.ID] = c
		return c
	}
	var cuts []int64
	for i := range spans {
		c := clip(&spans[i])
		cuts = append(cuts, c[0], c[1])
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := make(map[int64]float64, len(spans))
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b <= a {
			continue
		}
		open := make(map[int64]bool)
		for i := range spans {
			if c := clipped[spans[i].ID]; c[0] <= a && c[1] >= b {
				open[spans[i].ID] = true
			}
		}
		// A span is not innermost when one of its children is open.
		busyParent := make(map[int64]bool)
		for id := range open {
			if p := byID[id].Parent; open[p] {
				busyParent[p] = true
			}
		}
		var inner []int64
		for id := range open {
			if !busyParent[id] {
				inner = append(inner, id)
			}
		}
		if len(inner) == 0 {
			continue
		}
		share := float64(b-a) / float64(len(inner))
		for _, id := range inner {
			out[id] += share
		}
	}
	return out
}

// reattach returns a copy of spans in which every span that does not
// overlap its recorded parent hangs under the parent's namesake that
// overlaps it most, or else under the nearest ancestor that does. A
// pipelined executor starts a level's slices while the previous level's span
// is still current, so their recorded parent can have ended before they
// start.
func reattach(spans []span) []span {
	out := append([]span(nil), spans...)
	byID := make(map[int64]*span, len(out))
	for i := range out {
		byID[out[i].ID] = &out[i]
	}
	overlap := func(a, b *span) int64 { return min(a.End, b.End) - max(a.Start, b.Start) }
	for i := range out {
		s := &out[i]
		p, ok := byID[s.Parent]
		if !ok || overlap(s, p) > 0 || s.End == s.Start {
			continue
		}
		var best *span
		for k := range out {
			c := &out[k]
			if c.Name == p.Name && c.Parent == p.Parent && overlap(s, c) > 0 && (best == nil || overlap(s, c) > overlap(s, best)) {
				best = c
			}
		}
		for best == nil {
			if p, ok = byID[p.Parent]; !ok {
				break
			}
			if overlap(s, p) > 0 {
				best = p
			}
		}
		if best != nil {
			s.Parent = best.ID
		}
	}
	return out
}

// workSplit carves validator and partition time, which the program reports
// only as per-job totals, out of the self time of the spans that contain
// that work: the lattice levels locally, the worker executions under a shard
// pool. Parallel executors report CPU time summed across workers, so when
// the totals exceed the containing time they are scaled down to fit it.
type workSplit struct {
	from       string // name of the spans whose self time holds the work
	validate   float64
	partitions float64
}

// rollup sums the self times of one job's spans by layer (nanoseconds) and
// applies the work split.
func rollup(spans []span, split workSplit) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64, len(layers))
	var avail float64
	fromLayer := ""
	for i := range spans {
		out[spans[i].Layer] += self[spans[i].ID]
		if spans[i].Name == split.from {
			avail += self[spans[i].ID]
			fromLayer = spans[i].Layer
		}
	}
	if fromLayer != "" {
		v, p := split.validate, split.partitions
		if sum := v + p; sum > avail && sum > 0 {
			v, p = v*avail/sum, p*avail/sum
		}
		out[fromLayer] -= v + p
		out["validate"] += v
		out["partition"] += p
	}
	return out
}

// chargeRuntime moves pause nanoseconds of stop-the-world GC time out of the
// other layers, pro rata to their size, into the runtime layer: pauses stop
// whatever layer was running, and the spans cannot tell which.
func chargeRuntime(byLayer map[string]float64, pause float64) {
	var total float64
	for _, v := range byLayer {
		total += v
	}
	if total <= 0 || pause <= 0 {
		return
	}
	if pause > total {
		pause = total
	}
	keep := (total - pause) / total
	for l, v := range byLayer {
		byLayer[l] = v * keep
	}
	byLayer["runtime"] += pause
}
