package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aod/internal/service"
)

// shed answers 503 with an honest Retry-After — never a bare refusal.
func (rt *Router) shed(w http.ResponseWriter, reason string, retryAfter int) {
	if retryAfter < 1 {
		retryAfter = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("router: load shed (%s); retry after %ds", reason, retryAfter))
}

// postJob is the admission-controlled submit path: tenant token bucket,
// then queue-age shedding, then a hash-routed, retrying submit. The job id
// in the response is rewritten into the router namespace and the submit
// spec remembered for failover.
func (rt *Router) postJob(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-AOD-Tenant")
	if wait, ok := rt.admit.allow(tenant, rt.now()); !ok {
		rt.met.shedTenant.Inc()
		rt.shed(w, "tenant quota", wait)
		return
	}
	if age, shedding := rt.queueShed(); shedding {
		rt.met.shedQueue.Inc()
		rt.shed(w, "queues saturated", service.RetryAfterSeconds(age, rt.cfg.MaxQueueAge))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubmitBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("router: reading submit body: %w", err))
		return
	}
	if len(body) > maxSubmitBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("router: submit body over %d bytes", maxSubmitBytes))
		return
	}
	// Only the routing key is parsed here; option validation is the
	// replica's job (it owns the canonical 400s).
	var spec struct {
		DatasetID string `json:"datasetId"`
	}
	_ = json.Unmarshal(body, &spec)

	// 404 is retryable on submit: a replica that missed the dataset's
	// replication fan-out answers "unknown dataset" even though a sibling
	// has it. Only after every replica says 404 does the client see one.
	res := rt.tryReplicas(r.Context(), rt.candidates(spec.DatasetID), true, func(ctx context.Context, base string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	})
	if res.resp == nil {
		rt.exhaustedReply(w, res)
		return
	}
	raw := readBody(res.resp)
	if res.resp.StatusCode == http.StatusAccepted {
		var view struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(raw, &view) == nil && view.ID != "" {
			gid := res.rp.name() + "." + view.ID
			rt.submits.put(gid, submitRecord{
				body:      body,
				datasetID: spec.DatasetID,
				replica:   res.rp.idx,
				localID:   view.ID,
			})
			raw = rewriteID(raw, gid)
			w.Header().Set("Location", "/jobs/"+gid)
		}
	}
	forward(w, res.resp, raw, res.attempts)
}

// jobProxy serves GET/DELETE /jobs/{id} and GET /jobs/{id}/trace by routing
// to the job's home replica. A plain GET whose home replica is gone falls
// back to resubmitting from the remembered spec — polling clients survive a
// replica death the same way streaming ones do.
func (rt *Router) jobProxy(w http.ResponseWriter, r *http.Request) {
	gid := r.PathValue("id")
	rec, idx, local, ok := rt.resolveJob(gid)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("router: unknown job %q", gid))
		return
	}
	suffix := ""
	if strings.HasSuffix(r.URL.Path, "/trace") {
		suffix = "/trace"
	}
	rp := rt.replicas[idx]
	res := rt.tryReplicas(r.Context(), []*replica{rp}, false, func(ctx context.Context, base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, r.Method, base+"/jobs/"+local+suffix, nil)
	})
	if res.resp == nil {
		// Home replica unreachable. For status polls with a remembered
		// spec, fail the job over instead of failing the client.
		if r.Method == http.MethodGet && suffix == "" && rec != nil {
			if nidx, nlocal, err := rt.failover(r.Context(), gid, *rec, idx); err == nil {
				nres := rt.tryReplicas(r.Context(), []*replica{rt.replicas[nidx]}, false, func(ctx context.Context, base string) (*http.Request, error) {
					return http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+nlocal, nil)
				})
				if nres.resp != nil {
					forward(w, nres.resp, rewriteID(readBody(nres.resp), gid), res.attempts+nres.attempts)
					return
				}
			}
		}
		rt.exhaustedReply(w, res)
		return
	}
	raw := readBody(res.resp)
	if suffix == "" {
		raw = rewriteID(raw, gid)
	}
	forward(w, res.resp, raw, res.attempts)
}

// failover re-submits a remembered job spec to a healthy replica other than
// exclude (unless it is the only one) and repoints the submit memory so
// every later request for the gid lands on the new home. Safe because
// submits dedup by cache key: if the job already finished and its report
// peered or persisted, the new home serves it without recomputing.
func (rt *Router) failover(ctx context.Context, gid string, rec submitRecord, exclude int) (idx int, local string, err error) {
	rt.met.failovers.Inc()
	// A failover is a retry of the job's work on a new replica: count it in
	// the retry total too, so one counter answers "did the router have to
	// absorb anything" regardless of which path absorbed it.
	rt.met.retries.Inc()
	cands := make([]*replica, 0, len(rt.replicas))
	for _, rp := range rt.candidates(rec.datasetID) {
		if rp.idx != exclude {
			cands = append(cands, rp)
		}
	}
	if len(cands) == 0 {
		cands = rt.candidates(rec.datasetID)
	}
	res := rt.tryReplicas(ctx, cands, true, func(ctx context.Context, base string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(rec.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	})
	if res.resp == nil {
		if res.lastErr != nil {
			return 0, "", fmt.Errorf("router: failover submit: %w", res.lastErr)
		}
		return 0, "", fmt.Errorf("router: failover submit failed (last status %d)", res.lastStatus)
	}
	raw := readBody(res.resp)
	if res.resp.StatusCode != http.StatusAccepted {
		return 0, "", fmt.Errorf("router: failover submit: status %d", res.resp.StatusCode)
	}
	var view struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(raw, &view) != nil || view.ID == "" {
		return 0, "", fmt.Errorf("router: failover submit: bad response body")
	}
	rec.replica, rec.localID = res.rp.idx, view.ID
	rt.submits.put(gid, rec)
	rt.logf("job %s failed over to %s (%s)", gid, res.rp.name(), view.ID)
	return res.rp.idx, view.ID, nil
}

// streamJob proxies the NDJSON progress stream with mid-stream failover: if
// the feed breaks before its terminal "done" event, the router resubmits
// the remembered spec to a surviving replica, injects a synthetic
// {"type":"failover"} event, and splices the new stream in. Clients may see
// level events replayed across the splice; the terminal event arrives
// exactly once.
func (rt *Router) streamJob(w http.ResponseWriter, r *http.Request) {
	gid := r.PathValue("id")
	rec, idx, local, ok := rt.resolveJob(gid)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("router: unknown job %q", gid))
		return
	}
	flusher, _ := w.(http.Flusher)
	started := false
	for hop := 0; hop <= len(rt.replicas); hop++ {
		rp := rt.replicas[idx]
		// No attempt timeout: streams legitimately outlive any RPC bound.
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rp.base+"/jobs/"+local+"/stream", nil)
		if err != nil {
			break
		}
		resp, doErr := rt.do(rp, req)
		if doErr == nil && resp.StatusCode == http.StatusOK {
			if !started {
				started = true
				w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
				w.Header().Set("X-Accel-Buffering", "no")
				w.WriteHeader(http.StatusOK)
			}
			done := copyStream(w, flusher, resp.Body)
			resp.Body.Close()
			if done {
				return
			}
		} else if doErr == nil {
			// Conclusive non-200 (e.g. 404 on a replica that restarted):
			// only a remembered spec can rescue it; otherwise forward.
			raw := readBody(resp)
			if !(resp.StatusCode == http.StatusNotFound && rec != nil) {
				if !started {
					forward(w, resp, raw, hop+1)
				}
				return
			}
		}
		if r.Context().Err() != nil || rec == nil {
			break
		}
		nidx, nlocal, ferr := rt.failover(r.Context(), gid, *rec, idx)
		if ferr != nil {
			rt.logf("stream %s: %v", gid, ferr)
			break
		}
		if started {
			// The synthetic event keeps the splice honest; stream readers
			// skip event types they don't know.
			ev, _ := json.Marshal(map[string]string{
				"type": "failover", "jobId": gid,
				"from": rt.replicas[idx].name(), "to": rt.replicas[nidx].name(),
			})
			w.Write(append(ev, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
		}
		idx, local = nidx, nlocal
	}
	if !started {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("router: stream for %s unavailable on every replica", gid))
	}
	// Started but never reached "done" and out of failover hops: the
	// truncated stream is itself the honest signal; the client's read
	// fails and its own retry policy takes over.
}

// copyStream forwards NDJSON lines, flushing each, until the body errors or
// the terminal "done" event passes through. Partial trailing lines (a
// mid-line connection cut) are dropped, never forwarded.
func copyStream(w io.Writer, flusher http.Flusher, body io.Reader) (sawDone bool) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		w.Write(line)
		w.Write([]byte{'\n'})
		if flusher != nil {
			flusher.Flush()
		}
		var ev struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &ev) == nil && ev.Type == "done" {
			return true
		}
	}
	return false
}

// postDataset replicates the upload to every replica — uploads are
// content-addressed and idempotent, so "send it everywhere" is both safe
// and what makes job failover possible. The first successful replica's
// response goes to the client; stragglers that miss the fan-out are healed
// later by the submit path's 404 failover.
func (rt *Router) postDataset(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, rt.cfg.MaxUploadBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("router: reading upload: %w", err))
		return
	}
	if int64(len(body)) > rt.cfg.MaxUploadBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("router: upload over %d bytes", rt.cfg.MaxUploadBytes))
		return
	}
	q := ""
	if r.URL.RawQuery != "" {
		q = "?" + r.URL.RawQuery
	}
	ct := r.Header.Get("Content-Type")
	var firstResp *http.Response
	var firstRaw []byte
	var lastResp *http.Response
	var lastRaw []byte
	var lastErr error
	okCount, tried := 0, 0
	for _, rp := range rt.orderedHealthyFirst() {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, rp.base+"/datasets"+q, bytes.NewReader(body))
		if rerr != nil {
			cancel()
			continue
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		tried++
		resp, derr := rt.do(rp, req)
		if derr != nil {
			cancel()
			lastErr = derr
			rt.met.uploadRepl.Inc()
			rt.logf("upload replication to %s failed: %v", rp.name(), derr)
			continue
		}
		raw := readBody(resp)
		cancel()
		lastResp, lastRaw = resp, raw
		if resp.StatusCode < 300 {
			okCount++
			if firstResp == nil {
				firstResp, firstRaw = resp, raw
			}
		} else {
			rt.met.uploadRepl.Inc()
			rt.logf("upload replication to %s failed: status %d", rp.name(), resp.StatusCode)
		}
	}
	w.Header().Set("X-AOD-Router-Replicas", fmt.Sprintf("%d/%d", okCount, tried))
	switch {
	case firstResp != nil:
		forward(w, firstResp, firstRaw, tried)
	case lastResp != nil:
		// Every replica rejected it the same way (bad CSV, too big):
		// forward the verdict rather than masking it as a gateway error.
		forward(w, lastResp, lastRaw, tried)
	default:
		if lastErr == nil {
			lastErr = fmt.Errorf("no replicas reachable")
		}
		writeErr(w, http.StatusBadGateway, fmt.Errorf("router: upload failed on all replicas: %w", lastErr))
	}
}

// getDataset reads a dataset record from its rendezvous home, failing over
// (404 included — replication may have missed one replica) to siblings.
func (rt *Router) getDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res := rt.tryReplicas(r.Context(), rt.candidates(id), true, func(ctx context.Context, base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+"/datasets/"+id, nil)
	})
	if res.resp == nil {
		rt.exhaustedReply(w, res)
		return
	}
	forward(w, res.resp, readBody(res.resp), res.attempts)
}

// listProxy serves a read from whichever healthy replica answers first —
// for endpoints where any replica's view is acceptable.
func (rt *Router) listProxy(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		res := rt.tryReplicas(r.Context(), rt.orderedHealthyFirst(), false, func(ctx context.Context, base string) (*http.Request, error) {
			return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		})
		if res.resp == nil {
			rt.exhaustedReply(w, res)
			return
		}
		forward(w, res.resp, readBody(res.resp), res.attempts)
	}
}

// listJobs merges every reachable replica's job list, namespacing ids.
func (rt *Router) listJobs(w http.ResponseWriter, r *http.Request) {
	merged := make([]map[string]any, 0, 16)
	for _, rp := range rt.replicas {
		if !rp.up.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.base+"/jobs", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.do(rp, req)
		if err != nil {
			cancel()
			continue
		}
		raw := readBody(resp)
		cancel()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var jobs []map[string]any
		if json.Unmarshal(raw, &jobs) != nil {
			continue
		}
		for _, j := range jobs {
			if id, _ := j["id"].(string); id != "" {
				j["id"] = rp.name() + "." + id
			}
			merged = append(merged, j)
		}
	}
	writeJSON(w, http.StatusOK, merged)
}

// healthz reports the router ready while at least one replica is.
func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, rp := range rt.replicas {
		if rp.up.Load() {
			up++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(rt.cfg.ProbeInterval/time.Second)+1))
	case up < len(rt.replicas):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status": status, "replicasUp": up, "replicas": len(rt.replicas),
	})
}

// routerz is the operator's view: per-replica health, quota config, and
// the submit-memory footprint.
func (rt *Router) routerz(w http.ResponseWriter, r *http.Request) {
	views := make([]replicaView, 0, len(rt.replicas))
	for _, rp := range rt.replicas {
		views = append(views, rp.view())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"replicas":        views,
		"defaultQuota":    rt.cfg.DefaultQuota,
		"tenantQuotas":    rt.cfg.Quotas,
		"maxQueueAge":     rt.cfg.MaxQueueAge.String(),
		"maxAttempts":     rt.cfg.MaxAttempts,
		"rememberedJobs":  rt.submits.Len(),
		"submitMemoryCap": submitMemoryCap,
	})
}

// stats aggregates: the router's own replica states plus each reachable
// replica's GET /stats verbatim.
func (rt *Router) stats(w http.ResponseWriter, r *http.Request) {
	replicas := make(map[string]json.RawMessage, len(rt.replicas))
	for _, rp := range rt.replicas {
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.AttemptTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.base+"/stats", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.do(rp, req)
		if err != nil {
			cancel()
			replicas[rp.name()], _ = json.Marshal(map[string]string{"error": err.Error()})
			continue
		}
		raw := readBody(resp)
		cancel()
		if resp.StatusCode == http.StatusOK && json.Valid(raw) {
			replicas[rp.name()] = raw
		} else {
			replicas[rp.name()], _ = json.Marshal(map[string]string{"error": fmt.Sprintf("status %d", resp.StatusCode)})
		}
	}
	views := make([]replicaView, 0, len(rt.replicas))
	for _, rp := range rt.replicas {
		views = append(views, rp.view())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router":   map[string]any{"replicas": views},
		"replicas": replicas,
	})
}

func (rt *Router) metricsHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.cfg.Metrics.WritePrometheus(w)
}
