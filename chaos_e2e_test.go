package aod

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort grabs an ephemeral port and releases it so a child process can
// bind it by name — needed because the two replicas must know each other's
// peer URLs before either starts.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func buildTool(t *testing.T, dir, tool string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(dir, tool)
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	if msg, err := exec.Command(goBin, "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", tool, err, msg)
	}
	return bin
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}

// TestChaosFrontDoorE2E is the real-crash half of the chaos acceptance:
// two replicated aodserver processes (result caches peered both ways)
// behind a real aodrouter, a 5s open-loop aodload burst through the front
// door, and one replica SIGKILLed mid-run. The gate: aodload exits clean,
// the report shows zero client-visible errors in every traffic class, and
// the router's retry counter proves the crash actually happened and was
// absorbed.
func TestChaosFrontDoorE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if runtime.GOOS == "windows" {
		t.Skip("uses SIGKILL")
	}
	dir := t.TempDir()
	serverBin := buildAODServer(t, dir)
	routerBin := buildTool(t, dir, "aodrouter")
	loadBin := buildTool(t, dir, "aodload")

	// Fixed ports so each replica can name the other as a peer up front.
	addr1, addr2 := freePort(t), freePort(t)
	url1, url2 := "http://"+addr1, "http://"+addr2

	startReplica := func(addr, peer string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(serverBin,
			"-addr", addr, "-workers", "2", "-queue", "256", "-max-jobs", "-1",
			"-peers", peer)
		cmd.Stdout = nil
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		return cmd
	}
	startReplica(addr1, url2)
	victim := startReplica(addr2, url1)
	waitHealthy(t, url1)
	waitHealthy(t, url2)

	// A deliberately lazy probe: the router must discover the crash
	// passively, through a real failed RPC — which is exactly the retry the
	// gate below demands. A fast probe could mark the victim down in the
	// gap between client requests and make the run look retry-free.
	routerURL, _ := startAODServer(t, routerBin,
		"-replicas", url1+","+url2, "-probe-interval", "10s")
	waitHealthy(t, routerURL)

	reportPath := os.Getenv("AOD_CHAOS_REPORT")
	if reportPath == "" {
		reportPath = filepath.Join(dir, "chaos.json")
	}
	loadCmd := exec.Command(loadBin,
		"-router", routerURL, "-duration", "5s", "-rate", "50",
		"-zipf", "0.99", "-mix", "cachehit=60,small=30,large=10",
		"-seed", "42", "-large-timebox", "200ms", "-out", reportPath)
	loadOut := &strings.Builder{}
	loadCmd.Stderr = loadOut
	if err := loadCmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Give the burst time to warm up and get traffic in flight, then crash
	// one replica for real — no shutdown hooks, no drain.
	time.Sleep(2500 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	if err := loadCmd.Wait(); err != nil {
		t.Fatalf("aodload through a replica crash exited dirty: %v\n%s", err, loadOut)
	}
	t.Logf("aodload summary:\n%s", loadOut)

	// Zero client-visible errors in every class, with real traffic behind
	// the zeros.
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema  string `json:"schema"`
		Results []struct {
			Name       string `json:"name"`
			Count      uint64 `json:"count"`
			Errors     uint64 `json:"errors"`
			Retried    uint64 `json:"retried"`
			FailedOver uint64 `json:"failedOver"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("chaos report is not valid JSON: %v\n%s", err, data)
	}
	if rep.Schema != "aod-bench/v1" {
		t.Fatalf("report schema %q, want aod-bench/v1", rep.Schema)
	}
	var completed, absorbed uint64
	for _, r := range rep.Results {
		if r.Errors != 0 {
			t.Errorf("%s: %d client-visible errors through the crash, want 0", r.Name, r.Errors)
		}
		if strings.HasSuffix(r.Name, "/client") {
			completed += r.Count
			absorbed += r.Retried + r.FailedOver
		}
	}
	if completed == 0 {
		t.Fatal("burst completed zero requests; the zero-error gate is vacuous")
	}

	// The crash must be visible in the router's own telemetry: retries
	// absorbed, one replica down, the survivor still serving.
	code, metrics := httpGet(t, routerURL+"/metrics")
	if code != 200 {
		t.Fatalf("router /metrics status %d", code)
	}
	retries := counterValue(t, metrics, "aod_router_retries_total")
	if retries == 0 {
		t.Errorf("aod_router_retries_total = 0 through a SIGKILL mid-burst (report absorbed=%d)", absorbed)
	}
	code, health := httpGet(t, routerURL+"/healthz")
	if code != 200 || !strings.Contains(health, `"degraded"`) {
		t.Errorf("router /healthz after the crash = %d %s, want 200 degraded", code, health)
	}
	if code, _ := httpGet(t, routerURL+"/datasets"); code != 200 {
		t.Errorf("front door stopped serving reads after the crash: /datasets = %d", code)
	}
}

// counterValue extracts a (label-less) counter's value from Prometheus
// text exposition.
func counterValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestAODServerDrainE2E sends a real SIGTERM to the aodserver binary while
// a job is in flight: new submits are refused with 503 + Retry-After, the
// readiness probe flips to draining, the in-flight job still completes
// (observed through its open event stream), and the process exits 0 within
// the drain window.
func TestAODServerDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	if runtime.GOOS == "windows" {
		t.Skip("uses SIGTERM")
	}
	dir := t.TempDir()
	bin := buildAODServer(t, dir)
	base, cmd := startAODServer(t, bin, "-workers", "1", "-drain-timeout", "60s")

	// A dataset slow enough that the drain window opens while it runs.
	ds := Flight(12000, 8, 17)
	var csv strings.Builder
	if err := ds.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/datasets?name=drain", "text/csv", strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	body := fmt.Sprintf(`{"datasetId": %q, "options": {"threshold": 0.4, "algorithm": "iterative", "includeOFDs": true}}`, info.ID)
	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	// Attach to the stream before the drain starts; the connection must
	// survive the shutdown long enough to deliver the terminal event.
	stream, err := http.Get(base + "/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The server handles the signal asynchronously: wait until /healthz
	// reports the drain before probing admission.
	drainDeadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				break
			}
		}
		if time.Now().After(drainDeadline) {
			t.Fatal("/healthz never reported the drain after SIGTERM")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New work is refused while the admitted job drains.
	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("draining 503 Retry-After = %q, want ≥ 1", ra)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during drain = %d, want 503 (unready)", resp.StatusCode)
	}

	// The in-flight job still finishes: its stream delivers a done event.
	sawDone := false
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "done" {
			if ev.State != "done" {
				t.Fatalf("drained job ended %q, want done", ev.State)
			}
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream closed without the in-flight job's terminal event")
	}

	// And the process exits cleanly inside the drain window.
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("aodserver exited dirty after drain: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("aodserver never exited after SIGTERM")
	}
}
