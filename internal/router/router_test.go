package router

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSplitJobID(t *testing.T) {
	cases := []struct {
		gid   string
		idx   int
		local string
		ok    bool
	}{
		{"r0.job-17", 0, "job-17", true},
		{"r12.abc", 12, "abc", true},
		{"r1.job-3.stream", 1, "job-3.stream", true},
		{"job-17", 0, "", false},
		{"r.job-17", 0, "", false},
		{"rx.job-17", 0, "", false},
		{"r-1.job", 0, "", false},
		{"", 0, "", false},
	}
	for _, c := range cases {
		idx, local, ok := splitJobID(c.gid)
		if ok != c.ok || (ok && (idx != c.idx || local != c.local)) {
			t.Errorf("splitJobID(%q) = (%d, %q, %v), want (%d, %q, %v)",
				c.gid, idx, local, ok, c.idx, c.local, c.ok)
		}
	}
}

// newTestRouter builds a router over the given bases and waits for every
// replica's first probe (fired by New) to complete, so a test's direct
// writes to replica state never race it.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	deadline := time.Now().Add(10 * time.Second)
	for _, rp := range rt.replicas {
		for rp.probedAt.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %s: first probe did not complete", rp.base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return rt
}

// healthyTransport answers every /healthz probe with the same healthy, idle
// replica view and forwards all other requests to the default transport:
// probes of fake hosts never touch a resolver, and their outcome is fixed.
type healthyTransport struct{}

func (healthyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/healthz" {
		return http.DefaultTransport.RoundTrip(req)
	}
	const body = `{"status":"ok","queuedJobs":0,"jobsInFlight":0,"oldestQueueAgeNs":0}`
	return &http.Response{
		StatusCode:    http.StatusOK,
		Status:        "200 OK",
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}, nil
}

// TestRendezvousStability: candidate order is deterministic, spreads keys
// across replicas, and removing one replica never re-homes a key whose
// home survives — the property that keeps surviving result caches warm
// through a replica death.
func TestRendezvousStability(t *testing.T) {
	rt := newTestRouter(t, Config{
		Replicas:      []string{"http://a:1", "http://b:1", "http://c:1"},
		ProbeInterval: time.Hour, // one probe, at New
		Transport:     healthyTransport{},
	})
	perHome := make(map[int]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		c1 := rt.candidates(key)
		c2 := rt.candidates(key)
		for j := range c1 {
			if c1[j].idx != c2[j].idx {
				t.Fatalf("candidates(%q) not deterministic", key)
			}
		}
		perHome[c1[0].idx]++
	}
	for idx := 0; idx < 3; idx++ {
		if perHome[idx] == 0 {
			t.Fatalf("replica %d homed zero of 300 keys: %v", idx, perHome)
		}
	}

	// Kill replica b: keys homed on a or c keep their homes; keys homed on
	// b redistribute to both survivors.
	rt.replicas[1].up.Store(false)
	moved := make(map[int]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		home := rt.candidates(key)[0].idx
		if rt.replicas[home].up.Load() == false {
			t.Fatalf("key %q homed on a down replica", key)
		}
		// Recompute what the home was with all replicas up, via raw weights.
		bestW, prev := uint64(0), -1
		for _, rp := range rt.replicas {
			if w := fnv1a64(key + "|" + rp.base); w > bestW {
				bestW, prev = w, rp.idx
			}
		}
		if prev != 1 && home != prev {
			t.Fatalf("key %q re-homed %d→%d though its home survived", key, prev, home)
		}
		if prev == 1 {
			moved[home]++
		}
	}
	if len(moved) != 2 {
		t.Fatalf("b's keys landed on %d replicas, want both survivors: %v", len(moved), moved)
	}
}

// TestAdmitterTokenBucket exercises the bucket math against a fake clock:
// bursts pass, the sustained rate holds, and the refusal's Retry-After is
// exactly long enough that waiting it out readmits the tenant.
func TestAdmitterTokenBucket(t *testing.T) {
	a := newAdmitter(TenantQuota{}, map[string]TenantQuota{
		"metered": {Rate: 2, Burst: 3},
	})
	now := time.Unix(1000, 0)

	// Unlimited default tenant: never refused.
	for i := 0; i < 100; i++ {
		if _, ok := a.allow("free", now); !ok {
			t.Fatal("unlimited tenant refused")
		}
	}

	// Burst of 3 passes, the 4th is refused with a usable hint.
	for i := 0; i < 3; i++ {
		if _, ok := a.allow("metered", now); !ok {
			t.Fatalf("burst submit %d refused", i)
		}
	}
	wait, ok := a.allow("metered", now)
	if ok {
		t.Fatal("4th burst submit admitted past the bucket")
	}
	if wait < 1 {
		t.Fatalf("Retry-After hint = %d, want ≥ 1", wait)
	}
	// Waiting the hinted time readmits.
	now = now.Add(time.Duration(wait) * time.Second)
	if _, ok := a.allow("metered", now); !ok {
		t.Fatal("tenant still refused after waiting its own Retry-After")
	}

	// Sustained rate: over 10 virtual seconds at 4 attempts/s, admissions
	// track the 2/s quota (plus loose change from the refill granularity).
	admitted := 0
	for i := 0; i < 40; i++ {
		now = now.Add(250 * time.Millisecond)
		if _, ok := a.allow("metered", now); ok {
			admitted++
		}
	}
	if admitted < 18 || admitted > 22 {
		t.Fatalf("admitted %d of 40 over 10s at rate 2/s, want ≈20", admitted)
	}
}

// countingTripper fabricates responses and records the faulted sequence.
type countingTripper struct {
	calls int
}

func (c *countingTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls++
	return &http.Response{
		StatusCode: 200,
		Body:       io.NopCloser(strings.NewReader("0123456789")),
		Header:     make(http.Header),
	}, nil
}

// TestFaultPlanDeterminism: a rule faults exactly its [After, After+Count)
// window of matching RPCs, twice over — same plan, same sequence, same
// faults.
func TestFaultPlanDeterminism(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Path: "/jobs", Method: "POST", After: 1, Count: 2, Action: "error"},
	}}
	for round := 0; round < 2; round++ {
		inner := &countingTripper{}
		tr := plan.transport(inner)
		var got []bool
		for i := 0; i < 6; i++ {
			req, _ := http.NewRequest(http.MethodPost, "http://x:1/jobs", nil)
			resp, err := tr.RoundTrip(req)
			got = append(got, err != nil)
			if err == nil {
				resp.Body.Close()
			}
		}
		want := []bool{false, true, true, false, false, false}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: fault sequence %v, want %v", round, got, want)
			}
		}
		// Non-matching traffic is never touched.
		req, _ := http.NewRequest(http.MethodGet, "http://x:1/jobs", nil)
		if _, err := tr.RoundTrip(req); err != nil {
			t.Fatalf("GET faulted by a POST rule: %v", err)
		}
	}
}

// TestFaultPlanCut: the cut action forwards exactly CutAfterBytes then
// fails the read, like a connection dying mid-body.
func TestFaultPlanCut(t *testing.T) {
	plan := &FaultPlan{Rules: []FaultRule{
		{Action: "cut", CutAfterBytes: 4},
	}}
	tr := plan.transport(&countingTripper{})
	req, _ := http.NewRequest(http.MethodGet, "http://x:1/stream", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("cut body read to EOF without an error")
	}
	if string(buf) != "0123" {
		t.Fatalf("read %q before the cut, want %q", buf, "0123")
	}
}

// TestBackoffSchedule: jittered exponential, deterministic per seed,
// always within [0.5×, 1.5×) of the capped ideal.
func TestBackoffSchedule(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		rt := newTestRouter(t, Config{
			Replicas:      []string{"http://a:1"},
			BackoffBase:   20 * time.Millisecond,
			BackoffMax:    200 * time.Millisecond,
			Seed:          seed,
			ProbeInterval: time.Hour,
			Transport:     healthyTransport{},
		})
		var out []time.Duration
		for a := 1; a <= 6; a++ {
			out = append(out, rt.backoff(a))
		}
		return out
	}
	s1, s2 := mk(7), mk(7)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", s1, s2)
		}
	}
	ideal := []time.Duration{20, 40, 80, 160, 200, 200}
	for i, d := range s1 {
		lo := time.Duration(float64(ideal[i]*time.Millisecond) * 0.5)
		hi := time.Duration(float64(ideal[i]*time.Millisecond) * 1.5)
		if d < lo || d >= hi {
			t.Fatalf("backoff(%d) = %v outside [%v, %v)", i+1, d, lo, hi)
		}
	}
	if s3 := mk(8); s3[0] == s1[0] && s3[1] == s1[1] && s3[2] == s1[2] {
		t.Fatal("different seeds produced an identical schedule prefix")
	}
}
