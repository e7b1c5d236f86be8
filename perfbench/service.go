package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"aod"
	"aod/internal/load"
	"aod/internal/service"
	"aod/internal/store"
	"aod/internal/telemetry"
)

// The service workload's traffic is aodload's default traffic: the
// cache-hit and small-job weights of load.DefaultMix (70:25) and its dataset
// popularity, Zipf s = 0.99 (aodload's default -zipf), planned as Poisson
// arrivals by load.BuildPlan. aodload's third class, time-boxed crawls of
// large tables, is left out: a crawl its time limit cuts short reports a
// partial result that no reference can check. Uploads of fresh CSVs are
// added as a Poisson stream of their own. The repository defines no upload
// traffic, so their rate is not taken from any source; it is chosen so a
// run holds the 100 uploads an upload p90 needs. The request rate is chosen
// the same way, for the 100 fresh jobs a job p90 needs, and it keeps the
// two workers mostly idle: an open loop well below saturation.
const (
	requestRate = 24.0 // cache hits + fresh jobs per second
	uploadRate  = 6.0  // fresh CSV uploads per second
	zipfS       = 0.99

	universeSize = 24 // registered datasets the requests choose from

	// partitionCacheBytes is the service's partition-cache budget. The
	// universe's prepared partitions total about 0.95 MB, of which the six
	// most popular tables' 0.24 MB fit, so the Zipf head fits and the tail
	// is evicted and re-prepared. The 64 MiB default
	// would need a universe of more than 16M cells, which takes longer to
	// upload than a whole run may last on a 2-core host.
	partitionCacheBytes = 256 << 10
)

// Threshold of the k-th fresh job: ε = 0.10 nudged by (k+1)·1e-9, as
// aodload nudges its small jobs. Below 1/rows for every k the plan reaches,
// so the removal budget ⌊ε·n⌋ and hence the report are those of ε = 0.10,
// while the result-cache key is new.
func freshThreshold(k int) float64 { return opts.Threshold + float64(k+1)*1e-9 }

// universeShape is the i-th registered table: aodload's small-dataset shape,
// flight 2000×8, for all. Its discovery cost varies little with the seed,
// so a fresh job's cost does not depend on which table Zipf picked.
func universeShape(seed int64, i int) shape {
	return shape{"flight", 2000, 8, subSeed(seed, 100+i)}
}

func uploadShape(seed int64, i int) shape {
	return shape{"ncvoter", 500, 6, subSeed(seed, 10000+i)}
}

type plannedOp struct {
	at    time.Duration
	class string // "job" (fresh), "hit" or "upload"
	arg   int    // universe index of a job or hit
	k     int    // index within the class, in arrival order
}

// plan draws the traffic of a run from the seed: load.BuildPlan's hits and
// fresh jobs, merged with the upload stream.
func plan(seed int64, seconds float64) ([]plannedOp, error) {
	dm := load.DefaultMix()
	mix, err := load.ParseMix(fmt.Sprintf("cachehit=%d,small=%d", dm.Weight(load.CacheHit), dm.Weight(load.Small)))
	if err != nil {
		return nil, err
	}
	d := time.Duration(seconds * float64(time.Second))
	reqs, err := load.BuildPlan(load.PlanConfig{Rate: requestRate, Duration: d, Arrival: load.ArrivalPoisson, Mix: mix,
		Zipf: zipfS, SmallDatasets: universeSize, LargeDatasets: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	var ops []plannedOp
	for _, r := range reqs {
		op := plannedOp{at: r.At, class: "job", arg: r.Dataset}
		if r.Class == load.CacheHit {
			op.class = "hit"
		}
		ops = append(ops, op)
	}
	for _, at := range load.Offsets(load.ArrivalPoisson, uploadRate, d, rand.New(rand.NewSource(subSeed(seed, 20000)))) {
		ops = append(ops, plannedOp{at: at, class: "upload"})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	n := map[string]int{}
	for i := range ops {
		ops[i].k = n[ops[i].class]
		n[ops[i].class]++
	}
	return ops, nil
}

func (op plannedOp) String() string {
	return fmt.Sprintf("%d %s %d %d", op.at, op.class, op.arg, op.k)
}

// svcRun is an in-process aodserver — service, HTTP handler and store in a
// directory of its own — on a loopback listener, driven over HTTP with at
// most procs connections.
type svcRun struct {
	procs   int
	dir     string
	svc     *service.Service
	reg     *aod.MetricsRegistry
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	digest  string
	ops     []plannedOp
	uploads [][]byte // CSVs of the plan's uploads, then the probes'
	probeUp int      // index of the first probe upload

	universe []*table
	ids      []string // registered IDs of the universe
	headSize int      // Zipf-rank prefix of the universe that fits the cache
	headB    int64    // prepared bytes of that prefix
	totalB   int64    // prepared bytes of the universe

	mu      sync.Mutex
	lookups []float64 // traced cache-lookup span durations, ms
}

func setupService(seed int64, seconds float64, procs int, workdir string) (_ *svcRun, err error) {
	s := &svcRun{procs: procs}
	if s.ops, err = plan(seed, seconds); err != nil {
		return nil, err
	}
	in := newInputDigest()
	var planText strings.Builder
	for _, op := range s.ops {
		planText.WriteString(op.String() + "\n")
	}
	in.add("plan", []byte(planText.String()))
	if s.universe, err = loadTables(func() []shape {
		var out []shape
		for i := 0; i < universeSize; i++ {
			out = append(out, universeShape(seed, i))
		}
		return out
	}(), in); err != nil {
		return nil, err
	}
	nUploads := 0
	for _, op := range s.ops {
		if op.class == "upload" {
			nUploads++
		}
	}
	s.probeUp = nUploads
	for i := 0; i < nUploads+2*probeReps; i++ {
		sh := uploadShape(seed, i)
		b, err := sh.csv()
		if err != nil {
			return nil, err
		}
		in.add(sh.String(), b)
		s.uploads = append(s.uploads, b)
	}
	s.digest = in.sum()
	// Universe index is Zipf rank: the head is the longest rank prefix
	// whose prepared partitions fit the cache.
	fits := true
	for _, t := range s.universe {
		b := t.ds.Prepare().MemBytes()
		s.totalB += b
		if fits = fits && s.headB+b <= partitionCacheBytes; fits {
			s.headB += b
			s.headSize++
		}
	}

	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(workdir, "service-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	st, err := store.Open(filepath.Join(s.dir, "store"))
	if err != nil {
		return nil, err
	}
	s.reg = aod.NewMetricsRegistry()
	s.svc = service.New(service.Config{Workers: procs, Store: st, Metrics: s.reg, PartitionCacheBytes: partitionCacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: service.NewHandler(s.svc, service.HandlerConfig{})}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // ErrServerClosed after Shutdown
	}()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}

	for i, t := range s.universe {
		id, err := s.upload(t.csv, fmt.Sprintf("u%d", i), false)
		if err != nil {
			return nil, fmt.Errorf("registering universe: %w", err)
		}
		s.ids = append(s.ids, id)
	}
	// Compute every ε = 0.10 report once, so every later repeat is a cache
	// hit.
	for i := range s.ids {
		v, err := s.runJob(s.ids[i], opts)
		if err != nil {
			return nil, fmt.Errorf("warming result cache: %w", err)
		}
		if reportDigest(v.Report) != s.universe[i].ref {
			return nil, fmt.Errorf("service report differs from the library's on %s", s.universe[i].shape)
		}
	}
	return s, nil
}

func (s *svcRun) inputDigest() string { return s.digest }

func (s *svcRun) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // a timeout leaves nothing to recover at exit
		cancel()
		<-s.served
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // best effort: the directory is ignored by git
	}
}

// upload posts a CSV; fresh content must be created (201), a re-upload may
// deduplicate (200).
func (s *svcRun) upload(csv []byte, name string, fresh bool) (string, error) {
	resp, err := s.client.Post(s.base+"/datasets?name="+name, "text/csv", bytes.NewReader(csv))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	if resp.StatusCode != http.StatusCreated && (fresh || resp.StatusCode != http.StatusOK) {
		return "", fmt.Errorf("upload status %d", resp.StatusCode)
	}
	return info.ID, nil
}

type jobView struct {
	ID     string      `json:"id"`
	State  string      `json:"state"`
	Error  string      `json:"error"`
	Report *aod.Report `json:"report"`
}

// submit posts a job and returns its ID.
func (s *svcRun) submit(id string, o aod.Options) (string, error) {
	body, err := json.Marshal(map[string]any{"datasetId": id, "options": o})
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit status %d: %s", resp.StatusCode, v.Error)
	}
	return v.ID, nil
}

// await blocks on the job's progress stream until it ends and reads the
// final "done" event; only state "done" is a success. The stream is the
// server's blocking wait: it answers at completion, with no polling delay.
func (s *svcRun) await(jobID string) (jobView, error) {
	resp, err := s.client.Get(s.base + "/jobs/" + jobID + "/stream")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("stream status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type   string      `json:"type"`
			State  string      `json:"state"`
			Error  string      `json:"error"`
			Report *aod.Report `json:"report"`
		}
		if err := dec.Decode(&ev); err != nil {
			return jobView{}, fmt.Errorf("job %s stream: %w", jobID, err)
		}
		if ev.Type != "done" {
			continue
		}
		v := jobView{ID: jobID, State: ev.State, Error: ev.Error, Report: ev.Report}
		switch {
		case v.State != "done":
			return v, fmt.Errorf("job %s %s: %s", jobID, v.State, v.Error)
		case v.Report == nil:
			return v, fmt.Errorf("job %s done without a report", jobID)
		}
		return v, nil
	}
}

func (s *svcRun) runJob(id string, o aod.Options) (jobView, error) {
	jobID, err := s.submit(id, o)
	if err != nil {
		return jobView{}, err
	}
	return s.await(jobID)
}

// svcPhase is what one service phase observed beyond the recorder:
// generator lateness, counter deltas and cache-lookup spans.
type svcPhase struct {
	late    []float64 // ms
	stats   service.Stats
	before  service.Stats
	queue   telemetry.HistogramSnapshot
	lookups []float64
}

// run replays the plan as an open loop. In a traced phase every other fresh
// job and every other hit, in arrival order, is traced.
func (s *svcRun) run(rec *recorder, tr *tracer) svcPhase {
	ph := svcPhase{before: s.svc.Stats()}
	qh := s.reg.Histogram("aod_queue_wait_seconds", "", "")
	qBefore := qh.Snapshot()
	offsets := make([]time.Duration, len(s.ops))
	for i, op := range s.ops {
		offsets[i] = op.at
	}
	late := openLoop(load.RealClock{}, offsets, func(i int, due time.Time) {
		op := s.ops[i]
		traced := tr != nil && op.k%2 == 1
		switch op.class {
		case "upload":
			_, err := s.upload(s.uploads[op.k], fmt.Sprintf("f%d", op.k), true)
			rec.op("upload", time.Since(due), err)
		case "job":
			o := opts
			o.Threshold = freshThreshold(op.k)
			s.job(rec, tr, traced, "job", due, s.ids[op.arg], o, s.universe[op.arg].ref)
		case "hit":
			s.job(rec, tr, traced, "hit", due, s.ids[op.arg], opts, s.universe[op.arg].ref)
		}
	})
	for _, l := range late {
		ph.late = append(ph.late, ms(l))
	}
	ph.stats = s.svc.Stats()
	ph.queue = histDiff(qh.Snapshot(), qBefore)
	s.mu.Lock()
	ph.lookups, s.lookups = s.lookups, nil
	s.mu.Unlock()
	return ph
}

// closedLoop sends fresh jobs, on the tables of the plan's fresh jobs over
// and over (every table in turn if the plan has none) with thresholds of
// their own, from one client that sends the next job as soon as its last one
// is done. It stops sending after d and returns how many jobs completed
// correctly. With one job in the server at a time, the process CPU time
// across a request is that request's cost, and jobs per second is the
// server's speed, which the open loop's fixed offered load cannot show.
func (s *svcRun) closedLoop(rec *recorder, d time.Duration) int {
	var tables []int
	for _, op := range s.ops {
		if op.class == "job" {
			tables = append(tables, op.arg)
		}
	}
	if len(tables) == 0 {
		for i := range s.ids {
			tables = append(tables, i)
		}
	}
	done := 0
	stop := time.Now().Add(d)
	for k := 0; time.Now().Before(stop); k++ {
		t := tables[k%len(tables)]
		o := opts
		o.Threshold = freshThreshold(satOffset + k)
		c0 := processCPU()
		sent := time.Now()
		v, err := s.runJob(s.ids[t], o)
		wall, c := time.Since(sent), processCPU()-c0
		if err == nil && reportDigest(v.Report) != s.universe[t].ref {
			err = fmt.Errorf("service report differs from the library's on dataset %s", s.ids[t])
		}
		rec.op("closed", wall, err)
		if err == nil {
			rec.cpu("job", c)
			done++
		}
	}
	return done
}

// satOffset shifts the closed loop's threshold indices past the open
// loop's, so every one of them is a result-cache miss.
const satOffset = 1000

// job runs one fresh or repeated job through HTTP, timed from its due time,
// checks the report against the library's and, when traced, rolls the
// server's span tree up by layer under the client's request span.
func (s *svcRun) job(rec *recorder, tr *tracer, traced bool, class string, due time.Time, id string, o aod.Options, ref string) {
	sent := time.Now()
	jobID, err := s.submit(id, o)
	var v jobView
	if err == nil {
		v, err = s.await(jobID)
	}
	done := time.Now()
	if err == nil && reportDigest(v.Report) != ref {
		err = fmt.Errorf("service report differs from the library's on dataset %s", id)
	}
	rec.op(class, done.Sub(due), err)
	if err != nil {
		return
	}
	if class == "job" {
		rec.job(v.Report, 0)
		if tr != nil && !traced {
			rec.plain(done.Sub(due))
		}
	}
	if !traced {
		return
	}
	tree, err := s.svc.JobTrace(jobID)
	if err != nil {
		rec.check("job trace", err)
		return
	}
	prog := flatten(tree.Spans)
	var build time.Duration
	for _, sp := range prog {
		switch sp.Name {
		case "cache-lookup":
			s.mu.Lock()
			s.lookups = append(s.lookups, ms(sp.Duration))
			s.mu.Unlock()
		case "partition-build":
			build += sp.Duration
		}
	}
	if class != "job" {
		return
	}
	js := tr.job()
	root := js.add(0, "request", "service", due, done)
	ids := js.importTrace(root, sent, prog)
	for _, sp := range prog {
		if sp.Name == "discover" {
			js.insertPipeline(ids[sp.ID], v.Report.Stats.TotalTime)
		}
	}
	st := v.Report.Stats
	byLayer := rollup(js.spans, workSplit{from: "level", validate: float64(st.ValidationTime), partitions: float64(max(0, st.PartitionTime-build))})
	js.commit()
	rec.traced(byLayer, done.Sub(due))
}

// probeReps is the number of calls per class and path in the HTTP-versus-
// in-process probe.
const probeReps = 15

// probe measures, in a quiet closed loop after the phase, each class through
// HTTP and through the service's Go API alternately (service.http_ms.* is
// the difference of the medians), the store's PutDataset into a store the
// benchmark owns, the library's report at a few of the plan's exact fresh
// options, and the table probes over the universe.
func (s *svcRun) probe(rec *recorder, m metricSet) error {
	var httpLat, apiLat = map[string][]float64{}, map[string][]float64{}
	for r := 0; r < probeReps; r++ {
		// Uploads.
		b := s.uploads[s.probeUp+2*r]
		t0 := time.Now()
		_, err := s.upload(b, fmt.Sprintf("p%d", r), true)
		rec.check("probe upload", err)
		httpLat["upload"] = append(httpLat["upload"], ms(time.Since(t0)))
		t0 = time.Now()
		ds, err := aod.ReadCSV(bytes.NewReader(s.uploads[s.probeUp+2*r+1]), aod.CSVOptions{})
		if err == nil {
			_, _, err = s.svc.Registry().Add(fmt.Sprintf("q%d", r), ds)
		}
		rec.check("probe in-process upload", err)
		apiLat["upload"] = append(apiLat["upload"], ms(time.Since(t0)))

		// Hits and fresh jobs, on the head dataset.
		for _, class := range []string{"hit", "job"} {
			o := opts
			if class == "job" {
				o.Threshold = freshThreshold(20000 + 2*r)
			}
			t0 = time.Now()
			v, err := s.runJob(s.ids[0], o)
			if err == nil && reportDigest(v.Report) != s.universe[0].ref {
				err = fmt.Errorf("probe report differs")
			}
			rec.check("probe "+class, err)
			httpLat[class] = append(httpLat[class], ms(time.Since(t0)))
			if class == "job" {
				o.Threshold = freshThreshold(20000 + 2*r + 1)
			}
			t0 = time.Now()
			err = s.apiJob(s.ids[0], o)
			rec.check("probe in-process "+class, err)
			apiLat[class] = append(apiLat[class], ms(time.Since(t0)))
		}
	}
	m.set("service.http_ms.upload", median(httpLat["upload"])-median(apiLat["upload"]), "ms")
	m.set("service.http_ms.hit", median(httpLat["hit"])-median(apiLat["hit"]), "ms")
	m.set("service.http_ms.job", median(httpLat["job"])-median(apiLat["job"]), "ms")

	st, err := store.Open(filepath.Join(s.dir, "probe-store"))
	if err != nil {
		return err
	}
	var adds []float64
	for r := 0; r < 5; r++ {
		ds, err := aod.ReadCSV(bytes.NewReader(s.uploads[s.probeUp+r]), aod.CSVOptions{})
		if err != nil {
			return err
		}
		fp := ds.Fingerprint()
		meta := store.DatasetMeta{ID: fp[:12], Fingerprint: fp, Rows: ds.NumRows(), Cols: ds.NumCols(),
			Columns: ds.ColumnNames(), Types: ds.ColumnTypes(), CreatedAt: time.Now().UTC()}
		t0 := time.Now()
		err = st.PutDataset(meta, ds)
		adds = append(adds, ms(time.Since(t0)))
		rec.check("probe store add", err)
	}
	m.set("store.add_ms", median(adds), "ms")

	// The service's fresh jobs are compared with the library's ε = 0.10
	// report; confirm that the library agrees at the exact nudged options.
	for _, op := range s.ops[:min(len(s.ops), 20)] {
		if op.class != "job" {
			continue
		}
		o := opts
		o.Threshold = freshThreshold(op.k)
		rep, err := aod.Discover(s.universe[op.arg].ds, o)
		if err == nil && reportDigest(rep) != s.universe[op.arg].ref {
			err = fmt.Errorf("library report at ε=%v differs from ε=%v", o.Threshold, opts.Threshold)
		}
		rec.check("nudged threshold", err)
	}

	var csvs [][]byte
	for _, t := range s.universe {
		csvs = append(csvs, t.csv)
	}
	return probeTables(csvs, m)
}

// apiJob runs a job through the service's Go API and waits for it.
func (s *svcRun) apiJob(id string, o aod.Options) error {
	v, err := s.svc.Submit(id, o)
	if err != nil {
		return err
	}
	events, cancel, err := s.svc.Stream(v.ID)
	if err != nil {
		return err
	}
	for range events {
	}
	cancel()
	v, err = s.svc.Job(v.ID)
	if err != nil {
		return err
	}
	if v.State != service.JobDone {
		return fmt.Errorf("in-process job %s: %s", v.State, v.Error)
	}
	return nil
}

// svcMetrics derives the service's per-layer metrics from one phase.
func svcMetrics(ph svcPhase, m metricSet) {
	d := func(a, b uint64) float64 { return float64(a) - float64(b) }
	st, b := ph.stats, ph.before
	m.set("service.queue_wait_p50_ms", ms(ph.queue.Quantile(0.5)), "ms")
	m.set("service.cache_lookup_ms", median(ph.lookups), "ms")
	m.set("service.result_cache_hit_ratio", ratio(d(st.CacheHits, b.CacheHits), d(st.CacheHits, b.CacheHits)+d(st.CacheMisses, b.CacheMisses)), "ratio")
	ph1, ph0 := d(st.PartitionCacheHits, b.PartitionCacheHits), d(st.PartitionCacheMisses, b.PartitionCacheMisses)
	m.set("service.partition_cache_hit_ratio", ratio(ph1, ph1+ph0), "ratio")
	m.set("service.validation_ms_per_job", ratio(ms(st.ValidationTime-b.ValidationTime), d(st.ValidationRuns, b.ValidationRuns)), "ms")
	m.set("service.routed.serial", d(st.JobsRoutedSerial, b.JobsRoutedSerial), "count")
	m.set("service.routed.pool", d(st.JobsRoutedPool, b.JobsRoutedPool), "count")
	m.set("store.writes_per_commit", ratio(d(st.BatchedWrites, b.BatchedWrites), d(st.GroupCommits, b.GroupCommits)), "ratio")
	p90, _ := percentile(ph.late, 0.9)
	m.set("loadgen.late_p90_ms", p90, "ms")
	if len(ph.late) > 0 {
		m.set("loadgen.late_max_ms", slices.Max(ph.late), "ms")
	}
}

// zipfHead describes the partition-cache sizing for the report.
func (s *svcRun) zipfHead() string {
	return fmt.Sprintf("universe %d datasets, %.2f MB of prepared partitions; Zipf head (top %d) %.2f MB fits the %.2f MB partition cache, the tail does not",
		len(s.universe), float64(s.totalB)/1e6, s.headSize, float64(s.headB)/1e6, float64(partitionCacheBytes)/1e6)
}
