package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aod"
)

// multiLevelDataset is random data with enough attributes that discovery
// crosses several lattice levels (the streaming tests need level boundaries
// to observe).
func multiLevelDataset(t *testing.T, rows, cols int) *aod.Dataset {
	t.Helper()
	return slowDataset(t, rows, cols)
}

// TestJobStreamDeliversGrowingPartials is the service-level streaming e2e: a
// slowed multi-level job delivers at least one partial-level event before
// completion, partial reports grow monotonically, GET /jobs/{id}-style views
// expose the partials mid-run, and the stream closes exactly when the job
// completes.
func TestJobStreamDeliversGrowingPartials(t *testing.T) {
	type probe struct {
		levels    int
		partialOK bool
		estimates []int64
	}
	var mu sync.Mutex
	p := probe{partialOK: true}
	cfg := Config{Workers: 1}
	cfg.levelHook = func(j *Job) {
		v := j.view(true)
		mu.Lock()
		p.levels++
		if v.State == JobRunning && (v.Partial == nil || v.Progress == nil) {
			p.partialOK = false
		}
		if v.State == JobRunning {
			p.estimates = append(p.estimates, v.CostEstimate)
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // slow the job so subscribers can watch
	}
	s := New(cfg)
	defer s.Close()

	info, _, err := s.Registry().Add("ml", multiLevelDataset(t, 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(info.ID, aod.Options{Threshold: 0.2, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := s.Stream(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	var seen []StreamEvent
	for ev := range events {
		if ev.Type != "level" {
			t.Fatalf("unexpected event type %q", ev.Type)
		}
		if ev.Report == nil || ev.Progress == nil {
			t.Fatalf("level event without partial report/progress: %+v", ev)
		}
		if n := len(seen); n > 0 {
			prevP, curP := seen[n-1].Progress, ev.Progress
			if curP.Level <= prevP.Level {
				t.Fatalf("levels not increasing: %d after %d", curP.Level, prevP.Level)
			}
			if len(ev.Report.OCs) < len(seen[n-1].Report.OCs) {
				t.Fatalf("partial report shrank at level %d", curP.Level)
			}
		}
		seen = append(seen, ev)
	}
	if len(seen) == 0 {
		t.Fatal("stream closed without a single level event")
	}

	final := waitState(t, s, view.ID, JobDone)
	if final.Report == nil {
		t.Fatal("done job has no report")
	}
	lastPartial := seen[len(seen)-1].Report
	if len(lastPartial.OCs) != len(final.Report.OCs) {
		t.Errorf("last partial has %d OCs, final report %d", len(lastPartial.OCs), len(final.Report.OCs))
	}
	mu.Lock()
	defer mu.Unlock()
	if !p.partialOK {
		t.Error("running job view lacked Partial/Progress after a level event")
	}
	for i := 1; i < len(p.estimates); i++ {
		if p.estimates[i] > p.estimates[i-1] {
			t.Errorf("cost estimate grew mid-run: %v", p.estimates)
		}
	}
	if final.CostEstimate != 0 {
		t.Errorf("terminal job still advertises cost %d", final.CostEstimate)
	}
}

// TestDoneJobDropsPartial: once a job is terminal it no longer holds its
// last level snapshot, and GET /jobs/{id} still answers with the final
// report and no partial or progress.
func TestDoneJobDropsPartial(t *testing.T) {
	published := make(chan struct{}, 64)
	cfg := Config{Workers: 1}
	cfg.levelHook = func(*Job) { published <- struct{}{} }
	s := New(cfg)
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer srv.Close()

	info, _, err := s.Registry().Add("ml", multiLevelDataset(t, 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(info.ID, aod.Options{Threshold: 0.2, IncludeOFDs: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, JobDone)
	if len(published) == 0 {
		t.Fatal("the job published no level snapshot")
	}
	s.mu.Lock()
	j := s.jobs[view.ID]
	s.mu.Unlock()
	j.mu.Lock()
	partial, progress := j.partial, j.progress
	j.mu.Unlock()
	if partial != nil || progress != nil {
		t.Errorf("done job still holds partial %v / progress %v", partial != nil, progress != nil)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got["report"]; !ok {
		t.Error("GET /jobs/{id} of a done job has no report")
	}
	for _, key := range []string{"partial", "progress"} {
		if _, ok := got[key]; ok {
			t.Errorf("GET /jobs/{id} of a done job carries %q", key)
		}
	}
	var state JobState
	if err := json.Unmarshal(got["state"], &state); err != nil || state != JobDone {
		t.Errorf("GET /jobs/{id} state = %s (%v), want done", got["state"], err)
	}
}

// TestJobStreamHTTP reads the NDJSON endpoint end to end: level events
// before the done event, application/x-ndjson content type, and a final
// "done" event carrying the report.
func TestJobStreamHTTP(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.levelHook = func(*Job) { time.Sleep(5 * time.Millisecond) }
	s := New(cfg)
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer srv.Close()

	// Upload a CSV wide enough for a multi-level run.
	var sb strings.Builder
	cols := 5
	for c := 0; c < cols; c++ {
		if c > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "c%d", c)
	}
	sb.WriteByte('\n')
	for r := 0; r < 200; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", (r*7+c*13)%5)
		}
		sb.WriteByte('\n')
	}
	resp, err := http.Post(srv.URL+"/datasets", "text/csv", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := fmt.Sprintf(`{"datasetId":%q,"options":{"threshold":0.2}}`, info.ID)
	resp, err = http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job JobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("want at least one level event plus done, got %d events", len(events))
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "level" {
			t.Errorf("mid-stream event type %q", ev.Type)
		}
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != JobDone || last.Report == nil {
		t.Errorf("bad terminal event: type=%q state=%q report=%v", last.Type, last.State, last.Report != nil)
	}

	// A stream opened on an already-terminal job yields just the done event.
	resp, err = http.Get(srv.URL + "/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc = bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 1 || !strings.Contains(lines[0], `"done"`) {
		t.Errorf("terminal-job stream: got %d lines %v", len(lines), lines)
	}
}

// TestJobStreamTerminatesOnCancel: canceling a running job closes its stream
// promptly, and the final state reads canceled.
func TestJobStreamTerminatesOnCancel(t *testing.T) {
	gateEntered := make(chan struct{})
	release := make(chan struct{})
	cfg := Config{Workers: 1}
	var once sync.Once
	cfg.levelHook = func(j *Job) {
		once.Do(func() { close(gateEntered) })
		select {
		case <-release:
		case <-j.ctx.Done(): // canceled mid-level: stop stalling the worker
		}
	}
	s := New(cfg)
	defer func() { close(release); s.Close() }()

	info, _, err := s.Registry().Add("ml", multiLevelDataset(t, 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(info.ID, aod.Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	events, cancel, err := s.Stream(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	<-gateEntered
	if _, err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				final := waitState(t, s, view.ID, JobCanceled)
				if final.Report != nil {
					t.Error("canceled job has a report")
				}
				return
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

// TestJobStreamClientDisconnect: dropping the HTTP request mid-stream
// detaches the subscription while the job runs to completion.
func TestJobStreamClientDisconnect(t *testing.T) {
	cfg := Config{Workers: 1}
	cfg.levelHook = func(*Job) { time.Sleep(5 * time.Millisecond) }
	s := New(cfg)
	defer s.Close()
	srv := httptest.NewServer(NewHandler(s, HandlerConfig{}))
	defer srv.Close()

	info, _, err := s.Registry().Add("ml", multiLevelDataset(t, 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.Submit(info.ID, aod.Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/jobs/"+view.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil { // wait for the first byte
		t.Fatal(err)
	}
	stop() // disconnect mid-stream
	resp.Body.Close()

	final := waitState(t, s, view.ID, JobDone)
	if final.Report == nil {
		t.Fatal("job did not complete after client disconnect")
	}
	// The handler's deferred cancel must have detached the subscriber.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		j := s.jobs[view.ID]
		s.mu.Unlock()
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still attached after disconnect", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPriorityQueueSmallJobOvertakesLarge pins the size-aware scheduler: with
// one worker pinned by a running job, a small job submitted AFTER a large one
// still runs first, and the starved-large FIFO behaviour is gone.
func TestPriorityQueueSmallJobOvertakesLarge(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	cfg := Config{Workers: 1}
	var once sync.Once
	cfg.runGate = func(j *Job) {
		entered <- j.id
		once.Do(func() { <-release }) // only the first (blocker) job stalls
	}
	s := New(cfg)
	defer s.Close()

	blockerInfo, _, err := s.Registry().Add("blocker", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	largeInfo, _, err := s.Registry().Add("large", multiLevelDataset(t, 3000, 8))
	if err != nil {
		t.Fatal(err)
	}
	smallInfo, _, err := s.Registry().Add("small", multiLevelDataset(t, 40, 3))
	if err != nil {
		t.Fatal(err)
	}

	blocker, err := s.Submit(blockerInfo.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	first := <-entered // the blocker owns the worker and is stalled on the gate

	large, err := s.Submit(largeInfo.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.Submit(smallInfo.ID, aod.Options{Threshold: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if lv, _ := s.Job(large.ID); lv.CostEstimate <= small.CostEstimate {
		t.Fatalf("cost estimates inverted: large %d <= small %d", lv.CostEstimate, small.CostEstimate)
	}
	close(release)

	second, third := <-entered, <-entered
	if first != blocker.ID || second != small.ID || third != large.ID {
		t.Fatalf("execution order %v, want [%s %s %s] (small overtakes large)",
			[]string{first, second, third}, blocker.ID, small.ID, large.ID)
	}
	waitState(t, s, large.ID, JobDone)
}

// TestQueueFIFOAmongEqualCost: equal-cost jobs keep submission order — the
// tie-break that stops the priority queue from reordering identical work.
func TestQueueFIFOAmongEqualCost(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	cfg := Config{Workers: 1}
	var once sync.Once
	cfg.runGate = func(j *Job) {
		entered <- j.id
		once.Do(func() { <-release })
	}
	s := New(cfg)
	defer s.Close()

	info, _, err := s.Registry().Add("d", smallDataset(t))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct thresholds defeat result-cache/single-flight sharing while
	// keeping every job's cost identical (same dataset, same levels).
	blocker, err := s.Submit(info.ID, aod.Options{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	a, err := s.Submit(info.ID, aod.Options{Threshold: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(info.ID, aod.Options{Threshold: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	if got := []string{<-entered, <-entered}; got[0] != a.ID || got[1] != b.ID {
		t.Fatalf("equal-cost order %v, want [%s %s]", got, a.ID, b.ID)
	}
	waitState(t, s, blocker.ID, JobDone)
	waitState(t, s, b.ID, JobDone)
}
