package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/coherence"
	"offloadsim/internal/sim"
)

// smallSpec returns a fast-to-simulate job spec.
func smallSpec(seed uint64) JobSpec {
	warm := uint64(0)
	meas := uint64(20_000)
	return JobSpec{
		Workload:      "apache",
		Policy:        "HI",
		WarmupInstrs:  &warm,
		MeasureInstrs: &meas,
		Seed:          &seed,
	}
}

// postJob submits a job body. It is goroutine-safe: failures are
// reported with Errorf and a zero status.
func postJob(t *testing.T, ts *httptest.Server, body []byte) (int, JobStatus, apiError) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/jobs: %v", err)
		return 0, JobStatus{}, apiError{}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st JobStatus
	var apiErr apiError
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Errorf("decoding status %q: %v", raw, err)
		}
	} else {
		_ = json.Unmarshal(raw, &apiErr)
	}
	return resp.StatusCode, st, apiErr
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatalf("GET /v1/results/%s: %v", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// scrapeMetrics fetches /metrics and parses the single-valued series.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// TestEndToEndHTTP drives the acceptance scenario: >=16 concurrent
// submissions over HTTP all complete; resubmitting an identical config
// is a cache hit returning byte-identical result JSON; the /metrics
// counters reconcile with what was submitted.
func TestEndToEndHTTP(t *testing.T) {
	srv := New(Options{QueueSize: 64, Workers: 4})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(smallSpec(uint64(i + 1)))
			code, st, apiErr := postJob(t, ts, body)
			if code != http.StatusAccepted && code != http.StatusOK {
				errs <- fmt.Errorf("job %d: status %d (%s)", i, code, apiErr.Error)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Wait for completion and fetch every result.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results := make([][]byte, n)
	for i, id := range ids {
		st, err := srv.Wait(ctx, id)
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s: state %s (err %q)", id, st.State, st.Error)
		}
		code, raw := getResult(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("result %s: HTTP %d: %s", id, code, raw)
		}
		var res sim.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("result %s is not a Result document: %v", id, err)
		}
		if res.Throughput <= 0 {
			t.Errorf("job %s: non-positive throughput %v", id, res.Throughput)
		}
		results[i] = raw
	}

	// Resubmit job 0's exact config: must be an instant cache hit with
	// byte-identical result JSON.
	body, _ := json.Marshal(smallSpec(1))
	code, st, _ := postJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("resubmission: HTTP %d, want 200 (cache hit)", code)
	}
	if !st.Cached || st.State != StateDone {
		t.Fatalf("resubmission: cached=%v state=%s, want cached done", st.Cached, st.State)
	}
	rcode, raw := getResult(t, ts, st.ID)
	if rcode != http.StatusOK {
		t.Fatalf("cached result: HTTP %d", rcode)
	}
	if !bytes.Equal(raw, results[0]) {
		t.Errorf("cache hit result is not byte-identical:\n%s\nvs\n%s", raw, results[0])
	}

	// A spelled-out-defaults spec must hit the same cache entry.
	explicit := smallSpec(1)
	thr := 1000
	lat := 100
	explicit.Threshold = &thr
	explicit.LatencyCycles = &lat
	explicit.Cores = 1
	explicit.OSSlots = 1
	body, _ = json.Marshal(explicit)
	code, st2, _ := postJob(t, ts, body)
	if code != http.StatusOK || !st2.Cached {
		t.Errorf("default-spelled spec: HTTP %d cached=%v, want cache hit", code, st2.Cached)
	}
	if st2.Key != st.Key {
		t.Errorf("default-spelled spec key %s != %s", st2.Key, st.Key)
	}

	m := scrapeMetrics(t, ts)
	submitted := m["offsimd_jobs_submitted_total"]
	completed := m["offsimd_jobs_completed_total"]
	failed := m["offsimd_jobs_failed_total"]
	if submitted != float64(n+2) {
		t.Errorf("jobs_submitted_total = %v, want %d", submitted, n+2)
	}
	if completed+failed != submitted {
		t.Errorf("completed(%v)+failed(%v) != submitted(%v)", completed, failed, submitted)
	}
	if failed != 0 {
		t.Errorf("jobs_failed_total = %v, want 0", failed)
	}
	if hits := m["offsimd_cache_hits_total"]; hits != 2 {
		t.Errorf("cache_hits_total = %v, want 2", hits)
	}
	if misses := m["offsimd_cache_misses_total"]; misses != float64(n) {
		t.Errorf("cache_misses_total = %v, want %d", misses, n)
	}
	if m["offsimd_queue_depth_jobs"] != 0 || m["offsimd_jobs_running"] != 0 {
		t.Errorf("gauges not quiescent: depth=%v running=%v",
			m["offsimd_queue_depth_jobs"], m["offsimd_jobs_running"])
	}
	if m["offsimd_job_latency_seconds_count"] != submitted {
		t.Errorf("latency histogram count %v != submitted %v",
			m["offsimd_job_latency_seconds_count"], submitted)
	}
}

// blockingServer builds a server whose simulations block until released.
func blockingServer(t *testing.T, opts Options) (*Server, chan struct{}, *atomic.Int64) {
	t.Helper()
	release := make(chan struct{})
	var runs atomic.Int64
	srv := New(opts)
	srv.runSim = func(c sim.Config) (sim.Result, error) {
		runs.Add(1)
		<-release
		return sim.Result{Workload: c.Workload.Name, Throughput: 1}, nil
	}
	srv.Start()
	return srv, release, &runs
}

// TestBackpressure429 fills the queue and verifies the next submission
// bounces with 429 while earlier ones still complete.
func TestBackpressure429(t *testing.T) {
	srv, release, _ := blockingServer(t, Options{QueueSize: 2, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Worker 1 picks up job A and blocks; jobs B, C fill the queue.
	var accepted []string
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(smallSpec(uint64(100 + i)))
		code, st, apiErr := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d (%s)", i, code, apiErr.Error)
		}
		accepted = append(accepted, st.ID)
	}
	// Give the worker a moment to dequeue job A so the queue state is
	// deterministic: 1 running + 2 queued = full.
	waitForCondition(t, time.Second, func() bool {
		return srv.Metrics().JobsRunning.Load() == 1 && srv.queue.depth() == 2
	})

	body, _ := json.Marshal(smallSpec(999))
	code, _, _ := postJob(t, ts, body)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: HTTP %d, want 429", code)
	}
	if got := srv.Metrics().JobsRejected.Load(); got != 1 {
		t.Errorf("jobs_rejected_total = %d, want 1", got)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range accepted {
		if st, err := srv.Wait(ctx, id); err != nil || st.State != StateDone {
			t.Fatalf("job %s after release: %v / %+v", id, err, st)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownDrains verifies graceful shutdown: running and queued jobs
// all finish before Shutdown returns, and intake is refused afterwards.
func TestShutdownDrains(t *testing.T) {
	srv, release, runs := blockingServer(t, Options{QueueSize: 8, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 6; i++ {
		body, _ := json.Marshal(smallSpec(uint64(200 + i)))
		code, st, apiErr := postJob(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: HTTP %d (%s)", i, code, apiErr.Error)
		}
		ids = append(ids, st.ID)
	}
	waitForCondition(t, time.Second, func() bool { return runs.Load() == 2 })

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	// While draining: health reports 503 and submissions are refused.
	waitForCondition(t, time.Second, func() bool { return srv.Draining() })
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(smallSpec(999))
	if code, _, _ := postJob(t, ts, body); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", code)
	}

	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not finish")
	}
	// Every accepted job must have completed during the drain.
	for _, id := range ids {
		st, ok := srv.Status(id)
		if !ok || st.State != StateDone {
			t.Errorf("job %s after drain: %+v", id, st)
		}
	}
}

// TestCoalescing verifies that identical specs submitted while the first
// is in flight share one simulation and one result document.
func TestCoalescing(t *testing.T) {
	srv, release, runs := blockingServer(t, Options{QueueSize: 8, Workers: 2})
	defer func() { srv.Shutdown(context.Background()) }()

	st1, err := srv.Submit(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitForCondition(t, time.Second, func() bool { return runs.Load() == 1 })
	st2, err := srv.Submit(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Coalesced {
		t.Errorf("second identical submission not coalesced: %+v", st2)
	}
	if st2.Key != st1.Key {
		t.Errorf("coalesced key mismatch: %s vs %s", st2.Key, st1.Key)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{st1.ID, st2.ID} {
		if st, err := srv.Wait(ctx, id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("ran %d simulations for 2 identical submissions, want 1", got)
	}
	r1, _, _ := srv.Result(st1.ID)
	r2, _, _ := srv.Result(st2.ID)
	if !bytes.Equal(r1, r2) {
		t.Errorf("coalesced results differ")
	}
	if srv.Metrics().JobsCoalesced.Load() != 1 {
		t.Errorf("jobs_coalesced_total = %d, want 1", srv.Metrics().JobsCoalesced.Load())
	}
}

// TestJobTimeout verifies per-job timeouts fail the job without taking
// the daemon down.
func TestJobTimeout(t *testing.T) {
	srv := New(Options{QueueSize: 4, Workers: 1, JobTimeout: 20 * time.Millisecond})
	block := make(chan struct{})
	srv.runSim = func(sim.Config) (sim.Result, error) {
		<-block
		return sim.Result{}, nil
	}
	srv.Start()
	defer close(block)
	defer srv.Shutdown(context.Background())

	st, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := srv.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "aborted") {
		t.Errorf("timed-out job: %+v, want failed/aborted", final)
	}
	if srv.Metrics().JobsFailed.Load() != 1 {
		t.Errorf("jobs_failed_total = %d, want 1", srv.Metrics().JobsFailed.Load())
	}
}

// TestJobsRunningDropsBeforeDone: offsimd_jobs_running reads 0 once a
// job's done channel has closed, so a client that sees the job finished
// never scrapes it as running. The last clock read before Wait returns
// is completeLocked's finishedAt stamp, taken just before done closes;
// the stubbed clock records the gauge at each read.
func TestJobsRunningDropsBeforeDone(t *testing.T) {
	srv := New(Options{QueueSize: 1, Workers: 1})
	srv.runSim = func(c sim.Config) (sim.Result, error) {
		return sim.Result{Workload: c.Workload.Name, Throughput: 1}, nil
	}
	var mu sync.Mutex
	var running []int64
	srv.now = func() time.Time {
		mu.Lock()
		running = append(running, srv.Metrics().JobsRunning.Load())
		mu.Unlock()
		return time.Now()
	}
	srv.Start()
	defer srv.Shutdown(context.Background())

	st, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if final, err := srv.Wait(ctx, st.ID); err != nil || final.State != StateDone {
		t.Fatalf("job: %v / %+v", err, final)
	}
	mu.Lock()
	last := running[len(running)-1]
	mu.Unlock()
	if last != 0 {
		t.Errorf("jobs running = %d when the job completed, want 0", last)
	}
}

// TestSubmitRejectsInvalidSpecs covers the 400 path.
func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	srv := New(Options{})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	neg := -5
	zero := uint64(0)
	bad := []JobSpec{
		{Workload: "no-such-workload"},
		{Workload: "apache", Policy: "nope"},
		{Workload: "apache", Threshold: &neg},
		{Workload: "apache", LatencyCycles: &neg},
		{Workload: "apache", Cores: -1},
		{Workload: "apache", MeasureInstrs: &zero},
		{Workload: "apache", OSL1KB: -4},
		// Allocation sizes from the body are bounded at admission.
		{Workload: "apache", OSSlots: sim.MaxOSCores + 1},
		{Workload: "apache", OSSlots: 1 << 40},
		{Workload: "apache", OSL1KB: 64},
		{Workload: "apache", OSL1KB: 1 << 30},
		{Workload: "apache", Mode: "sampled", Replicas: sim.MaxReplicas + 1},
		{Workload: "apache", Mode: "sampled", Replicas: 1 << 30},
		// Replicas are bounded in every mode.
		{Workload: "apache", Replicas: -3},
		// User cores plus OS cores past the coherence node limit.
		{Workload: "apache", Cores: 100},
		{Workload: "apache", Cores: math.MaxInt},
		{Workload: "apache", Cores: coherence.MaxNodes},
		{Workload: "apache", Cores: coherence.MaxNodes - 2, OSCores: 4},
	}
	// The bounds themselves are admitted.
	for _, ok := range []JobSpec{
		{Workload: "apache", Mode: "sampled", Replicas: sim.MaxReplicas},
		{Workload: "apache", Cores: coherence.MaxNodes - 1},
		{Workload: "apache", Policy: "baseline", Cores: coherence.MaxNodes},
	} {
		if _, err := ok.Config(); err != nil {
			t.Errorf("spec at the bound rejected: %v", err)
		}
	}
	for i, spec := range bad {
		body, _ := json.Marshal(spec)
		if code, _, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("bad spec %d: HTTP %d, want 400", i, code)
		}
		resp, err := http.Post(ts.URL+"/v1/peer/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d via peer execute: HTTP %d, want 400", i, resp.StatusCode)
		}
	}
	// A sweep grid past the point cap is refused before any expansion.
	axis := make([]int, 1000)
	big, _ := json.Marshal(cluster.SweepRequest{
		Workloads: []string{"apache", "derby"}, Thresholds: axis, Latencies: axis,
	})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep grid: HTTP %d, want 400", resp.StatusCode)
	}
	// So is a sweep asking for more replicas per point than a job may.
	many, _ := json.Marshal(cluster.SweepRequest{
		Workloads: []string{"apache"}, Mode: "sampled", Replicas: sim.MaxReplicas + 1,
	})
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(many))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with %d replicas: HTTP %d, want 400", sim.MaxReplicas+1, resp.StatusCode)
	}
	// The sweep's -os-cores axis is cmd/sweep's alone: the wire has no
	// K axis under any spelling.
	for _, body := range []string{
		`{"workloads":["apache"],"OSCores":[1,2]}`,
		`{"workloads":["apache"],"os_cores":[1,2]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep with a K axis %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	// A sweep naming an unknown workload or policy is refused, naming
	// it, before any point runs.
	for _, tc := range []struct{ body, want string }{
		{`{"workloads":["apache","nope"]}`, `sweep: unknown workload "nope"`},
		{`{"workloads":["apache"],"policies":["HI","warp"]}`, `sweep: unknown policy "warp"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("sweep %s: HTTP %d %q, want 400 with %q", tc.body, resp.StatusCode, apiErr.Error, tc.want)
		}
	}
	if got := srv.Metrics().Sweeps.Load(); got != 0 {
		t.Errorf("invalid sweeps counted as accepted: %d", got)
	}
	// Unknown fields are rejected too (catches client typos like "sede").
	if code, _, _ := postJob(t, ts, []byte(`{"workload":"apache","sede":3}`)); code != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", code)
	}
	// The spec's CLI-only OS-core knobs have no wire name, under any
	// spelling.
	for _, body := range []string{
		`{"workload":"apache","os_cores":2,"async":true,"async_slots":4}`,
		`{"workload":"apache","os_cores":2,"depth_n":100}`,
		`{"workload":"apache","os_cores":2,"rebalance":true}`,
		`{"workload":"apache","os_cores":2,"AsyncSlots":4}`,
		`{"workload":"apache","os_cores":2,"DepthN":100}`,
		`{"workload":"apache","os_cores":2,"Rebalance":true}`,
	} {
		if code, _, _ := postJob(t, ts, []byte(body)); code != http.StatusBadRequest {
			t.Errorf("CLI-only field %s: HTTP %d, want 400", body, code)
		}
		resp, err := http.Post(ts.URL+"/v1/peer/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("CLI-only field %s via peer execute: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if got := srv.Metrics().JobsSubmitted.Load(); got != 0 {
		t.Errorf("invalid specs counted as submitted: %d", got)
	}
}

// TestRefusedSweepTakesNoID: a sweep refused with a 400 takes no sweep
// id, so the first accepted sweep is s-00000001 and the only one
// offsimd_sweeps_total counts.
func TestRefusedSweepTakesNoID(t *testing.T) {
	srv := New(Options{QueueSize: 8, Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body) // the accepted sweep's whole stream
		resp.Body.Close()
		return resp
	}
	for _, body := range []string{
		`{"workloads":["apache","nope"]}`,
		`{"workloads":["apache"],"policies":["HI","warp"]}`,
	} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	resp := post(`{"workloads":["apache"],"warmup_instrs":0,"measure_instrs":20000,"normalize":false}`)
	if id := resp.Header.Get("X-Offsimd-Sweep-Id"); resp.StatusCode != http.StatusOK || id != "s-00000001" {
		t.Errorf("accepted sweep after two refusals: HTTP %d, id %q, want 200 and s-00000001", resp.StatusCode, id)
	}
	if got := scrapeMetrics(t, ts)["offsimd_sweeps_total"]; got != 1 {
		t.Errorf("offsimd_sweeps_total = %v, want 1", got)
	}
}

// TestSweepPointWaitsForQueueRoom: a local sweep point meeting a full
// queue is admitted once and waits for room: it is never refused, so it
// takes one job id and adds nothing to offsimd_jobs_rejected_total, and
// it completes once the queue drains.
func TestSweepPointWaitsForQueueRoom(t *testing.T) {
	srv, release, _ := blockingServer(t, Options{QueueSize: 1, Workers: 1})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Shutdown(context.Background())
	}()
	// One job blocks the worker, the next fills the queue.
	if _, err := srv.Submit(smallSpec(1)); err != nil {
		t.Fatal(err)
	}
	waitForCondition(t, time.Second, func() bool { return srv.Metrics().JobsRunning.Load() == 1 })
	if _, err := srv.Submit(smallSpec(2)); err != nil {
		t.Fatal(err)
	}
	norm := false
	sw, err := srv.StartSweep(cluster.SweepRequest{Workloads: []string{"apache"}, Normalize: &norm})
	if err != nil {
		t.Fatal(err)
	}
	ids := func() uint64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.seq
	}
	waitForCondition(t, time.Second, func() bool { return ids() == 3 })
	time.Sleep(200 * time.Millisecond)
	if got := srv.Metrics().JobsRejected.Load(); got != 0 {
		t.Errorf("jobs_rejected_total = %d while the sweep point waited, want 0", got)
	}
	if got := ids(); got != 3 {
		t.Errorf("%d job ids taken, want 3 (two jobs and the sweep point)", got)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sw.Stream(ctx, func(pr *cluster.PointResult) error {
		if pr.Status != "done" {
			t.Errorf("sweep point %+v, want done", pr)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestBodyCap: every POST route answers a body one byte over
// maxBodyBytes with 413 and the JSON error envelope, admits nothing,
// and serves a normal body as before. A body at the cap is decoded.
func TestRequestBodyCap(t *testing.T) {
	srv := New(Options{QueueSize: 8, Workers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	post := func(route, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		return rec
	}
	// pad sizes a body with a workload name so it is n bytes long.
	pad := func(prefix, suffix string, n int) string {
		return prefix + strings.Repeat("a", n-len(prefix)-len(suffix)) + suffix
	}
	spec, _ := json.Marshal(smallSpec(1))
	peerSpec, _ := json.Marshal(smallSpec(2))
	for _, tc := range []struct {
		route, prefix, suffix, normal string
		code                          int
	}{
		{"/v1/jobs", `{"workload":"`, `"}`, string(spec), http.StatusAccepted},
		{"/v1/peer/execute", `{"workload":"`, `"}`, string(peerSpec), http.StatusOK},
		{"/v1/sweeps", `{"workloads":["`, `"]}`,
			`{"workloads":["apache"],"warmup_instrs":0,"measure_instrs":20000,"normalize":false}`, http.StatusOK},
	} {
		before := srv.Metrics().JobsSubmitted.Load()
		rec := post(tc.route, pad(tc.prefix, tc.suffix, maxBodyBytes+1))
		var apiErr apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != http.StatusRequestEntityTooLarge ||
			!strings.Contains(apiErr.Error, "exceeds 1048576 bytes") {
			t.Errorf("POST %s, %d bytes: HTTP %d %.80q, want 413 with an error envelope",
				tc.route, maxBodyBytes+1, rec.Code, rec.Body.String())
		}
		if rec := post(tc.route, pad(tc.prefix, tc.suffix, maxBodyBytes)); rec.Code == http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s, %d bytes: HTTP 413 for a body at the cap", tc.route, maxBodyBytes)
		}
		if got := srv.Metrics().JobsSubmitted.Load(); got != before {
			t.Errorf("POST %s: a refused body was admitted (%d submitted, want %d)", tc.route, got, before)
		}
		if rec := post(tc.route, tc.normal); rec.Code != tc.code {
			t.Errorf("POST %s, normal body: HTTP %d, want %d: %s", tc.route, rec.Code, tc.code, rec.Body.Bytes())
		}
	}
}

// TestSpecFieldOrderIrrelevant: the same spec serialized with different
// JSON field orders must map to one canonical key.
func TestSpecFieldOrderIrrelevant(t *testing.T) {
	a := []byte(`{"workload":"apache","threshold":100,"seed":3,"latency_cycles":5000}`)
	b := []byte(`{"seed":3,"latency_cycles":5000,"workload":"apache","threshold":100}`)
	var sa, sb JobSpec
	if err := json.Unmarshal(a, &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &sb); err != nil {
		t.Fatal(err)
	}
	ca, err := sa.Config()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sb.Config()
	if err != nil {
		t.Fatal(err)
	}
	ka, err := sim.CanonicalKey(ca)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := sim.CanonicalKey(cb)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("field order changed the key: %s vs %s", ka, kb)
	}
}

func waitForCondition(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
