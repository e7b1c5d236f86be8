package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeBackend is a scriptable aodserver stand-in: healthy /healthz plus
// whatever job handlers the test wires up.
func fakeBackend(t *testing.T, wire func(mux *http.ServeMux)) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","queuedJobs":0,"jobsInFlight":0,"oldestQueueAgeNs":0}`)
	})
	if wire != nil {
		wire(mux)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// keyHomedOn finds a routing key whose rendezvous home is the wanted
// replica — tests force deterministic placement with it.
func keyHomedOn(t *testing.T, rt *Router, idx int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("ds-%d", i)
		if rt.candidates(key)[0].idx == idx {
			return key
		}
	}
	t.Fatal("no key homed on replica within 10000 tries")
	return ""
}

func submitBody(key string) string {
	return `{"datasetId":"` + key + `","options":{"threshold":0.1}}`
}

// TestSubmitFailover5xx: a submit whose home replica answers 500 retries
// onto the sibling, returns its 202 with the id rewritten into the router
// namespace, and surfaces the absorbed attempts in the header and the
// retry counter.
func TestSubmitFailover5xx(t *testing.T) {
	bad := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		})
	})
	good := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-9","state":"queued"}`)
		})
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{bad.URL, good.URL},
		BackoffBase:   time.Millisecond,
		ProbeInterval: time.Hour,
	})
	key := keyHomedOn(t, rt, 0)

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(submitBody(key))))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.ID != "r1.job-9" {
		t.Fatalf("job id = %q, want r1.job-9 (failed over, router-namespaced)", view.ID)
	}
	if got := rec.Header().Get("Location"); got != "/jobs/r1.job-9" {
		t.Fatalf("Location = %q", got)
	}
	if got := rec.Header().Get("X-AOD-Router"); got == "" {
		t.Fatal("response missing the X-AOD-Router identity header")
	}
	if n, _ := strconv.Atoi(rec.Header().Get("X-AOD-Router-Attempts")); n != 2 {
		t.Fatalf("attempts header = %q, want 2", rec.Header().Get("X-AOD-Router-Attempts"))
	}
	if rt.met.retries.Value() != 1 {
		t.Fatalf("aod_router_retries_total = %d, want 1", rt.met.retries.Value())
	}
}

// TestSubmitExhausted: when every replica keeps failing, the client gets
// the backend's own last 5xx (not a mushy 502) and the exhausted counter
// moves.
func TestSubmitExhausted(t *testing.T) {
	mk := func() *httptest.Server {
		return fakeBackend(t, func(mux *http.ServeMux) {
			mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "7")
				http.Error(w, "overload", http.StatusInternalServerError)
			})
		})
	}
	rt := newTestRouter(t, Config{
		Replicas:      []string{mk().URL, mk().URL},
		MaxAttempts:   3,
		BackoffBase:   time.Millisecond,
		ProbeInterval: time.Hour,
	})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(submitBody("k"))))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("exhausted submit = %d, want the backend's 500", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want the backend's own hint", got)
	}
	if n, _ := strconv.Atoi(rec.Header().Get("X-AOD-Router-Attempts")); n != 3 {
		t.Fatalf("attempts = %q, want MaxAttempts=3", rec.Header().Get("X-AOD-Router-Attempts"))
	}
	if rt.met.exhausted.Value() != 1 {
		t.Fatalf("exhausted counter = %d, want 1", rt.met.exhausted.Value())
	}
}

// TestTenantShedRetryAfter: the token bucket refuses the over-quota submit
// with 503, a usable Retry-After, and the labeled shed counter — before any
// backend sees the request.
func TestTenantShedRetryAfter(t *testing.T) {
	backendHits := 0
	be := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			backendHits++
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1"}`)
		})
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{be.URL},
		DefaultQuota:  TenantQuota{Rate: 0.5, Burst: 1},
		ProbeInterval: time.Hour,
	})
	req := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(submitBody("k")))
		r.Header.Set("X-AOD-Tenant", "alice")
		rt.ServeHTTP(rec, r)
		return rec
	}
	if rec := req(); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", rec.Code, rec.Body)
	}
	rec := req()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-quota submit = %d, want 503", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Fatalf("shed Retry-After = %q, want integer in [1, ceil(1/rate)+1]", rec.Header().Get("Retry-After"))
	}
	if rt.met.shedTenant.Value() != 1 {
		t.Fatalf("shed{reason=tenant} = %d, want 1", rt.met.shedTenant.Value())
	}
	if backendHits != 1 {
		t.Fatalf("backend saw %d submits; the shed one must not reach it", backendHits)
	}
}

// TestQueueShedBounds: when every healthy replica's queue age exceeds
// MaxQueueAge the router sheds with a Retry-After derived from (and bounded
// by) the congestion, across a range of observed ages.
func TestQueueShedBounds(t *testing.T) {
	be := fakeBackend(t, nil)
	maxAge := 3 * time.Second
	rt := newTestRouter(t, Config{
		Replicas:      []string{be.URL},
		MaxQueueAge:   maxAge,
		ProbeInterval: time.Hour,
		Transport:     healthyTransport{},
	})
	for _, age := range []time.Duration{
		maxAge + time.Millisecond, 5 * time.Second, 42 * time.Second, 10 * time.Minute,
	} {
		rt.replicas[0].queueAgeNs.Store(int64(age))
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(submitBody("k"))))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("age %v: submit = %d, want 503", age, rec.Code)
		}
		ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || ra < 1 || ra > int(maxAge/time.Second)+1 {
			t.Fatalf("age %v: Retry-After = %q, want integer in [1, %d]",
				age, rec.Header().Get("Retry-After"), int(maxAge/time.Second)+1)
		}
	}
	// Back under the bound: admitted again (404 from the bare backend,
	// which has no /jobs handler — but it got through).
	rt.replicas[0].queueAgeNs.Store(0)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(submitBody("k"))))
	if rec.Code == http.StatusServiceUnavailable {
		t.Fatalf("submit still shed after queues drained: %d", rec.Code)
	}
	if rt.met.shedQueue.Value() != 4 {
		t.Fatalf("shed{reason=queue} = %d, want 4", rt.met.shedQueue.Value())
	}
}

// TestStreamFailover: a stream that dies before its terminal event is
// failed over — resubmit to the sibling, synthetic failover marker, spliced
// continuation — and later requests for the job follow it to its new home.
func TestStreamFailover(t *testing.T) {
	dying := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
		})
		mux.HandleFunc("GET /jobs/job-1/stream", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"type":"level","level":1}`)
			// Return without a done event: the replica died mid-job.
		})
	})
	surviving := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-2","state":"queued"}`)
		})
		mux.HandleFunc("GET /jobs/job-2/stream", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"type":"level","level":1}`)
			fmt.Fprintln(w, `{"type":"done","state":"done"}`)
		})
		mux.HandleFunc("GET /jobs/job-2", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"id":"job-2","state":"done"}`)
		})
	})
	rt := newTestRouter(t, Config{
		Replicas:      []string{dying.URL, surviving.URL},
		BackoffBase:   time.Millisecond,
		ProbeInterval: time.Hour,
	})
	front := httptest.NewServer(rt)
	defer front.Close()
	key := keyHomedOn(t, rt, 0)

	resp, err := http.Post(front.URL+"/jobs", "application/json", strings.NewReader(submitBody(key)))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.ID != "r0.job-1" {
		t.Fatalf("job id = %q, want r0.job-1", view.ID)
	}

	resp, err = http.Get(front.URL + "/jobs/" + view.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sawFailover := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type, State, From, To string
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		if ev.Type == "failover" {
			sawFailover = true
			if ev.From != "r0" || ev.To != "r1" {
				t.Fatalf("failover event %s→%s, want r0→r1", ev.From, ev.To)
			}
		}
		if ev.Type == "done" && ev.State != "done" {
			t.Fatalf("terminal state %q", ev.State)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawFailover || len(types) == 0 || types[len(types)-1] != "done" {
		t.Fatalf("stream events %v, want a failover marker and a final done", types)
	}
	if rt.met.failovers.Value() != 1 {
		t.Fatalf("failovers = %d, want 1", rt.met.failovers.Value())
	}

	// The job's identity survived the move: the original gid now resolves
	// to the surviving replica, id still rewritten to the client's handle.
	resp, err = http.Get(front.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var after struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.ID != view.ID || after.State != "done" {
		t.Fatalf("post-failover job view = %+v, want id %s state done", after, view.ID)
	}
}

// TestUploadFanout: one client upload lands on every replica, and partial
// replication failures are counted but don't fail the client.
func TestUploadFanout(t *testing.T) {
	var gotA, gotB []byte
	a := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /datasets", func(w http.ResponseWriter, r *http.Request) {
			gotA, _ = io.ReadAll(r.Body)
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"abc123","rows":2}`)
		})
	})
	b := fakeBackend(t, func(mux *http.ServeMux) {
		mux.HandleFunc("POST /datasets", func(w http.ResponseWriter, r *http.Request) {
			gotB, _ = io.ReadAll(r.Body)
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"abc123","rows":2}`)
		})
	})
	rt := newTestRouter(t, Config{Replicas: []string{a.URL, b.URL}, ProbeInterval: time.Hour})
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/datasets?name=x", strings.NewReader("a,b\n1,2\n")))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", rec.Code, rec.Body)
	}
	if string(gotA) != "a,b\n1,2\n" || string(gotB) != "a,b\n1,2\n" {
		t.Fatalf("fan-out bodies: a=%q b=%q", gotA, gotB)
	}
	if got := rec.Header().Get("X-AOD-Router-Replicas"); got != "2/2" {
		t.Fatalf("replication header = %q, want 2/2", got)
	}
}
