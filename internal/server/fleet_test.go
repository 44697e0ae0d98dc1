package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/sim"
)

// fleetReplica is one in-process fleet member: a Server plus its HTTP
// listener, with the simulation entry point wrapped to count how many
// simulations this replica actually executed.
type fleetReplica struct {
	srv      *Server
	ts       *httptest.Server
	addr     string
	executes atomic.Int64
}

// fleet is an in-process N-replica offsimd deployment on loopback
// listeners, wired exactly like production: static membership, HTTP
// coordination, every replica serving the same Handler().
type fleet struct {
	reps []*fleetReplica
	ring *cluster.Ring
}

// newFleet boots n replicas. Listeners are bound before any server is
// built so every replica knows the full membership up front; mutate
// (optional) adjusts one replica's Options before construction.
func newFleet(t *testing.T, n int, mutate func(i int, o *Options)) *fleet {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	ring, err := cluster.NewRing(addrs)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	fl := &fleet{ring: ring}
	for i := 0; i < n; i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		mem, err := cluster.ParseMembership(addrs[i], peers)
		if err != nil {
			t.Fatalf("membership: %v", err)
		}
		opts := Options{
			QueueSize: 64,
			Workers:   4,
			Cluster:   ClusterOptions{Membership: mem, StealThreshold: -1},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		rep := &fleetReplica{addr: addrs[i]}
		rep.srv = New(opts)
		inner := rep.srv.runSim
		rep.srv.runSim = func(c sim.Config) (sim.Result, error) {
			rep.executes.Add(1)
			return inner(c)
		}
		rep.srv.Start()
		ts := httptest.NewUnstartedServer(rep.srv.Handler())
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		rep.ts = ts
		fl.reps = append(fl.reps, rep)
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = rep.srv.Shutdown(ctx)
		})
	}
	return fl
}

// byAddr returns the replica advertising addr.
func (f *fleet) byAddr(t *testing.T, addr string) *fleetReplica {
	t.Helper()
	for _, r := range f.reps {
		if r.addr == addr {
			return r
		}
	}
	t.Fatalf("no replica at %s", addr)
	return nil
}

// keyOf computes spec's canonical key.
func keyOf(t *testing.T, spec JobSpec) string {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatalf("spec config: %v", err)
	}
	key, err := sim.CanonicalKey(cfg)
	if err != nil {
		t.Fatalf("canonical key: %v", err)
	}
	return key
}

// specOwnedBy scans seeds for a small spec whose ring owner is the
// replica at ownerIdx, starting after *cursor so repeated calls yield
// distinct specs.
func (f *fleet) specOwnedBy(t *testing.T, ownerIdx int, cursor *uint64) JobSpec {
	t.Helper()
	for seed := *cursor + 1; seed < *cursor+10_000; seed++ {
		spec := smallSpec(seed)
		if f.ring.Owner(keyOf(t, spec)) == f.reps[ownerIdx].addr {
			*cursor = seed
			return spec
		}
	}
	t.Fatalf("no spec owned by replica %d in 10000 seeds", ownerIdx)
	return JobSpec{}
}

// waitJob polls replica rep for job id until it is terminal.
func waitJob(t *testing.T, rep *fleetReplica, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(rep.addr + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /v1/jobs/%s: %v", id, err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestFleetRoutingLandsOnOwner submits jobs to one replica and checks
// every job executes (and caches) on its consistent-hash ring owner,
// with the submission response naming that owner so clients poll the
// right replica.
func TestFleetRoutingLandsOnOwner(t *testing.T) {
	fl := newFleet(t, 3, nil)

	forwarded := 0
	for seed := uint64(1); seed <= 8; seed++ {
		spec := smallSpec(seed)
		key := keyOf(t, spec)
		owner := fl.ring.Owner(key)
		body, _ := json.Marshal(spec)
		code, st, apiErr := postJob(t, fl.reps[0].ts, body)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d (%s)", seed, code, apiErr.Error)
		}
		if st.Replica != owner {
			t.Fatalf("seed %d: landed on %s, ring owner is %s", seed, st.Replica, owner)
		}
		if owner != fl.reps[0].addr {
			forwarded++
		}
		ownerRep := fl.byAddr(t, owner)
		fin := waitJob(t, ownerRep, st.ID)
		if fin.State != StateDone {
			t.Fatalf("seed %d: job failed: %s", seed, fin.Error)
		}
		// The cache entry must live on the owner shard: the peer cache
		// probe answers 200 there.
		resp, err := http.Get(owner + "/v1/peer/results/" + key)
		if err != nil {
			t.Fatalf("peer probe: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: owner %s peer probe returned %d, want 200", seed, owner, resp.StatusCode)
		}
	}
	if forwarded == 0 {
		t.Fatal("all 8 specs hashed to replica 0; test needs at least one forwarded submission")
	}
	m := scrapeMetrics(t, fl.reps[0].ts)
	if got := int(m["offsimd_jobs_forwarded_total"]); got != forwarded {
		t.Fatalf("replica 0 forwarded %d jobs, metrics say %d", forwarded, got)
	}
}

// TestFleetPeerCacheHit covers the two-tier cache's remote leg: after
// the owner computes a result, a different replica asked to execute the
// identical config serves it from the owner's cache over HTTP instead
// of simulating again.
func TestFleetPeerCacheHit(t *testing.T) {
	fl := newFleet(t, 3, nil)
	var cursor uint64
	spec := fl.specOwnedBy(t, 1, &cursor)
	body, _ := json.Marshal(spec)

	// Compute once on the owner.
	code, st, apiErr := postJob(t, fl.reps[1].ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("owner submit: HTTP %d (%s)", code, apiErr.Error)
	}
	if fin := waitJob(t, fl.reps[1], st.ID); fin.State != StateDone {
		t.Fatalf("owner job failed: %s", fin.Error)
	}
	_, ownerRes := getResult(t, fl.reps[1].ts, st.ID)

	// Force a recompute attempt on a non-owner via the internal execute
	// endpoint (which never forwards): it must fetch, not simulate.
	before := fl.reps[2].executes.Load()
	resp, err := http.Post(fl.reps[2].addr+"/v1/peer/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("peer execute: %v", err)
	}
	peerRes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer execute: HTTP %d: %s", resp.StatusCode, peerRes)
	}
	if !bytes.Equal(peerRes, ownerRes) {
		t.Fatalf("peer-served result differs from owner's:\n%s\nvs\n%s", peerRes, ownerRes)
	}
	if got := fl.reps[2].executes.Load(); got != before {
		t.Fatalf("non-owner simulated %d times; want 0 (peer cache hit)", got-before)
	}
	m := scrapeMetrics(t, fl.reps[2].ts)
	if m["offsimd_peer_cache_hits_total"] < 1 {
		t.Fatalf("peer cache hit not counted: %v", m["offsimd_peer_cache_hits_total"])
	}
}

// TestFleetStealUnderOverload saturates one replica (single worker
// wedged, queue past the steal threshold) and checks overflow jobs are
// executed by less-loaded peers while the owner is stuck, then that
// everything drains once the owner recovers.
func TestFleetStealUnderOverload(t *testing.T) {
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }

	fl := newFleet(t, 3, func(i int, o *Options) {
		if i == 0 {
			o.Workers = 1
			o.Cluster.StealThreshold = 1
		}
	})
	t.Cleanup(openGate)
	// Replica 0's simulations block until the gate opens; peers simulate
	// normally, so stolen work finishes while the owner is wedged.
	inner := fl.reps[0].srv.runSim
	fl.reps[0].srv.runSim = func(c sim.Config) (sim.Result, error) {
		<-gate
		return inner(c)
	}

	var cursor uint64
	var ids []string
	stolen := 0
	for i := 0; i < 8; i++ {
		spec := fl.specOwnedBy(t, 0, &cursor)
		body, _ := json.Marshal(spec)
		code, st, apiErr := postJob(t, fl.reps[0].ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d (%s)", i, code, apiErr.Error)
		}
		ids = append(ids, st.ID)
		if st.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatal("no submissions entered the steal path with a wedged single-worker owner and threshold 1")
	}

	// While the owner's only worker is still wedged, peers must pick up
	// and finish stolen work.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var victimSims int64
		for _, rep := range fl.reps[1:] {
			victimSims += rep.executes.Load()
		}
		if victimSims >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no victim executed a stolen job within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := scrapeMetrics(t, fl.reps[0].ts)
	if m["offsimd_jobs_stolen_total"] < 1 {
		t.Fatalf("offsimd_jobs_stolen_total = %v, want >= 1", m["offsimd_jobs_stolen_total"])
	}
	var peerExecs float64
	for _, rep := range fl.reps[1:] {
		peerExecs += scrapeMetrics(t, rep.ts)["offsimd_peer_executes_total"]
	}
	if peerExecs < 1 {
		t.Fatalf("victims report %v peer executes, want >= 1", peerExecs)
	}
	if fl.reps[0].executes.Load() != 0 {
		t.Fatal("wedged owner completed a simulation; the gate is broken")
	}

	// Unwedge; every admitted job (stolen or queued) must drain.
	openGate()
	for _, id := range ids {
		if fin := waitJob(t, fl.reps[0], id); fin.State != StateDone {
			t.Fatalf("job %s failed: %s", id, fin.Error)
		}
	}
}

// sweepBody is the 64-point Figure-4-style grid used by the sweep
// tests: 2 workloads x 2 policies x 4 thresholds x 4 latencies, with
// normalization off so fleet-wide execute accounting is exact.
func sweepBody() []byte {
	return []byte(`{
		"workloads": ["apache", "derby"],
		"policies": ["HI", "SI"],
		"thresholds": [50, 100, 150, 200],
		"latencies": [50, 100, 150, 200],
		"warmup_instrs": 0,
		"measure_instrs": 20000,
		"seed": 1,
		"normalize": false,
		"concurrency": 8
	}`)
}

// sweepProgress mirrors cluster.Progress for decoding; kept local so
// the test reads like an external client.
type sweepProgress struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Complete bool   `json:"complete"`
}

// runSweep POSTs body to rep and returns the parsed NDJSON stream:
// sweep id, raw point lines (in order) and the trailing progress line.
func runSweep(t *testing.T, rep *fleetReplica, body []byte) (string, []string, sweepProgress) {
	t.Helper()
	resp, err := http.Post(rep.addr+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/sweeps: HTTP %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep Content-Type = %q", ct)
	}
	id := resp.Header.Get("X-Offsimd-Sweep-Id")
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading sweep stream: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("sweep stream too short: %d lines", len(lines))
	}
	var hdr sweepHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("decoding sweep header %q: %v", lines[0], err)
	}
	if hdr.SweepID != id {
		t.Fatalf("header sweep id %q != response header %q", hdr.SweepID, id)
	}
	var prog sweepProgress
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &prog); err != nil {
		t.Fatalf("decoding sweep trailer %q: %v", lines[len(lines)-1], err)
	}
	return id, lines[1 : len(lines)-1], prog
}

// checkSweepDone fails t unless sweepBody's stream emitted every index
// exactly once, in order, with status done, and its trailer reports the
// sweep complete.
func checkSweepDone(t *testing.T, lines []string, prog sweepProgress) {
	t.Helper()
	if len(lines) != 64 {
		t.Fatalf("streamed %d point lines, want 64", len(lines))
	}
	for i, line := range lines {
		var pr struct {
			Index  int    `json:"index"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &pr); err != nil {
			t.Fatalf("decoding point line %d: %v", i, err)
		}
		if pr.Index != i {
			t.Fatalf("line %d carries index %d; the stream must emit each index exactly once, in order", i, pr.Index)
		}
		if pr.Status != "done" {
			t.Fatalf("point %d failed: %s", pr.Index, pr.Error)
		}
	}
	if !prog.Complete || prog.Done != 64 || prog.Failed != 0 {
		t.Fatalf("trailer progress = %+v, want 64 done / complete", prog)
	}
}

// executes sums the simulations the fleet's replicas ran.
func (f *fleet) executes() int64 {
	var total int64
	for _, rep := range f.reps {
		total += rep.executes.Load()
	}
	return total
}

// TestFleetSweepExactlyOnce drives the acceptance scenario: a 64-point
// sweep POSTed to one replica of a 3-replica fleet is computed exactly
// once fleet-wide, streams every point in index order, and its point
// lines are byte-identical to the same sweep on a single replica.
func TestFleetSweepExactlyOnce(t *testing.T) {
	fl := newFleet(t, 3, nil)
	id, lines, prog := runSweep(t, fl.reps[0], sweepBody())
	checkSweepDone(t, lines, prog)

	// Exactly once fleet-wide: per-replica execute counts sum to the
	// grid size, and more than one replica did the computing.
	busy := 0
	for i, rep := range fl.reps {
		n := rep.executes.Load()
		t.Logf("replica %d executed %d points", i, n)
		if n > 0 {
			busy++
		}
	}
	if total := fl.executes(); total != 64 {
		t.Fatalf("fleet executed %d simulations for a 64-point sweep, want exactly 64", total)
	}
	if busy < 2 {
		t.Fatalf("only %d replica(s) executed work; fan-out did not spread the grid", busy)
	}

	// The finished sweep stays pollable.
	resp, err := http.Get(fl.reps[0].addr + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatalf("GET /v1/sweeps/%s: %v", id, err)
	}
	var polled sweepProgress
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatalf("decoding progress: %v", err)
	}
	resp.Body.Close()
	if !polled.Complete || polled.Done != 64 {
		t.Fatalf("polled progress = %+v, want 64 done / complete", polled)
	}

	// A cross-replica recompute attempt of an already-computed point is
	// served from the owner's cache: zero extra simulations fleet-wide.
	zero := uint64(0)
	meas := uint64(20_000)
	one := uint64(1)
	n := 50
	lat := 50
	spec := JobSpec{
		Workload: "apache", Policy: "HI", Threshold: &n, LatencyCycles: &lat,
		WarmupInstrs: &zero, MeasureInstrs: &meas, Seed: &one,
	}
	body, _ := json.Marshal(spec)
	owner := fl.ring.Owner(keyOf(t, spec))
	var nonOwner *fleetReplica
	for _, rep := range fl.reps {
		if rep.addr != owner {
			nonOwner = rep
			break
		}
	}
	pe, err := http.Post(nonOwner.addr+"/v1/peer/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("peer execute: %v", err)
	}
	peRes, _ := io.ReadAll(pe.Body)
	pe.Body.Close()
	if pe.StatusCode != http.StatusOK {
		t.Fatalf("peer execute: HTTP %d: %s", pe.StatusCode, peRes)
	}
	if after := fl.executes(); after != 64 {
		t.Fatalf("recompute attempt simulated: fleet total went from 64 to %d", after)
	}
	var peerHits float64
	for _, rep := range fl.reps {
		peerHits += scrapeMetrics(t, rep.ts)["offsimd_peer_cache_hits_total"]
	}
	if peerHits < 1 {
		t.Fatalf("offsimd_peer_cache_hits_total = %v fleet-wide, want > 0", peerHits)
	}

	// Determinism across fleet shapes: a single-replica fleet streams
	// byte-identical point lines for the same grid.
	solo := newFleet(t, 1, nil)
	_, soloLines, _ := runSweep(t, solo.reps[0], sweepBody())
	if len(soloLines) != len(lines) {
		t.Fatalf("single-replica sweep streamed %d lines, fleet streamed %d", len(soloLines), len(lines))
	}
	for i := range lines {
		if lines[i] != soloLines[i] {
			t.Fatalf("point line %d differs between 3-replica and 1-replica sweeps:\n%s\nvs\n%s",
				i, lines[i], soloLines[i])
		}
	}
}

// faultyTransport injects one kind of fault into every third
// POST /v1/peer/execute call and passes every other request through.
type faultyTransport struct {
	fault  func(*http.Request) (*http.Response, error)
	calls  atomic.Int64
	faults atomic.Int64
}

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/peer/execute" || f.calls.Add(1)%3 != 0 {
		return http.DefaultTransport.RoundTrip(req)
	}
	f.faults.Add(1)
	return f.fault(req)
}

// synthesized answers req with status and a JSON error body, without
// sending it.
func synthesized(req *http.Request, status int) (*http.Response, error) {
	req.Body.Close()
	return &http.Response{
		StatusCode: status,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"error":"injected fault"}`)),
		Request:    req,
	}, nil
}

// TestFleetSweepUnderPeerFaults: the coordinating replica's peer calls
// fail in five ways, one per subtest, on every third sweep fan-out. A
// refused, 5xx'd or dropped call falls back to local execution, whose
// peer-cache check finds a result the owner did compute, and a 429 is
// retried; so every point still streams exactly once, in order, with
// the bytes of a fault-free run, and the fleet simulates each point
// exactly once.
func TestFleetSweepUnderPeerFaults(t *testing.T) {
	_, want, _ := runSweep(t, newFleet(t, 3, nil).reps[0], sweepBody())
	for _, tc := range []struct {
		name  string
		fault func(*http.Request) (*http.Response, error)
	}{
		{"refuse", func(req *http.Request) (*http.Response, error) {
			req.Body.Close()
			return nil, errors.New("injected fault: connection refused")
		}},
		{"503", func(req *http.Request) (*http.Response, error) {
			return synthesized(req, http.StatusServiceUnavailable)
		}},
		{"429", func(req *http.Request) (*http.Response, error) {
			return synthesized(req, http.StatusTooManyRequests)
		}},
		{"drop-response", func(req *http.Request) (*http.Response, error) {
			if resp, err := http.DefaultTransport.RoundTrip(req); err == nil {
				resp.Body.Close()
			}
			return nil, errors.New("injected fault: response dropped")
		}},
		{"delay", func(req *http.Request) (*http.Response, error) {
			select {
			case <-time.After(100 * time.Millisecond):
			case <-req.Context().Done():
				req.Body.Close()
				return nil, req.Context().Err()
			}
			return http.DefaultTransport.RoundTrip(req)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := &faultyTransport{fault: tc.fault}
			fl := newFleet(t, 3, func(i int, o *Options) {
				if i == 0 {
					o.Cluster.HTTPClient = &http.Client{Transport: ft}
				}
			})
			_, lines, prog := runSweep(t, fl.reps[0], sweepBody())
			t.Logf("%d of %d peer executes faulted", ft.faults.Load(), ft.calls.Load())
			if ft.faults.Load() == 0 {
				t.Fatal("no fault was injected; the sweep made fewer than 3 peer executes")
			}
			checkSweepDone(t, lines, prog)
			for i := range lines {
				if lines[i] != want[i] {
					t.Fatalf("point line %d differs from the fault-free run:\n%s\nvs\n%s", i, lines[i], want[i])
				}
			}
			if total := fl.executes(); total != 64 {
				t.Fatalf("fleet executed %d simulations for a 64-point sweep, want exactly 64", total)
			}
		})
	}
}

// TestFleetMetricsAudit checks (a) every fleet metric is registered in
// the exposition, (b) sweep fan-out and peer executes count into the
// canonical queue metrics, (c) label cardinality stays bounded — the
// only labeled series are histogram buckets with the single "le"
// label — and (d) ring-ownership gauges reconcile with shard placement.
func TestFleetMetricsAudit(t *testing.T) {
	fl := newFleet(t, 3, nil)
	body := []byte(`{
		"workloads": ["apache"],
		"policies": ["HI"],
		"thresholds": [50, 100, 150, 200],
		"warmup_instrs": 0,
		"measure_instrs": 20000,
		"normalize": false
	}`)
	_, lines, _ := runSweep(t, fl.reps[0], body)
	if len(lines) != 4 {
		t.Fatalf("streamed %d point lines, want 4", len(lines))
	}

	registered := []string{
		"offsimd_peer_cache_hits_total",
		"offsimd_peer_cache_misses_total",
		"offsimd_jobs_stolen_total",
		"offsimd_peer_executes_total",
		"offsimd_jobs_forwarded_total",
		"offsimd_sweeps_total",
		"offsimd_sweep_points_total",
		"offsimd_ring_owned_keys",
		"offsimd_queue_depth_jobs",
		"offsimd_queue_wait_seconds_count",
		"offsimd_job_latency_seconds_count",
		"offsimd_trace_store_traces",
		"offsimd_trace_store_spans",
		"offsimd_spans_recorded_total",
		"offsimd_spans_dropped_total",
		"offsimd_traces_evicted_total",
		"offsimd_go_goroutines",
		"offsimd_go_heap_bytes",
		"offsimd_go_gc_cycles_total",
		"offsimd_go_gc_pause_seconds_total",
	}
	// The PR-5 deprecated unsuffixed aliases must be gone for good.
	deprecated := []string{"offsimd_queue_depth ", "offsimd_reserved_slots "}
	var submitted, queueWaits, owned float64
	for i, rep := range fl.reps {
		resp, err := http.Get(rep.addr + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		text := string(raw)
		for _, name := range registered {
			if !strings.Contains(text, "\n"+name+" ") && !strings.HasPrefix(text, name+" ") {
				t.Fatalf("replica %d: metric %s not exposed", i, name)
			}
		}
		for _, name := range deprecated {
			if strings.Contains(text, "\n"+name) {
				t.Fatalf("replica %d: removed deprecated alias %sstill exposed", i, name)
			}
		}
		for _, line := range strings.Split(text, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			open := strings.IndexByte(line, '{')
			if open < 0 {
				continue
			}
			end := strings.IndexByte(line, '}')
			if end < open {
				t.Fatalf("replica %d: malformed series %q", i, line)
			}
			labels := line[open+1 : end]
			if strings.HasPrefix(line, "offsimd_oscore_queue_depth{") {
				// The one labeled gauge: its class label is drawn from the
				// fixed syscall-category set (cardinality-guarded at the
				// observe site), never composed with other labels.
				if !strings.HasPrefix(labels, `class="`) || strings.Contains(labels, ",") {
					t.Fatalf("replica %d: unexpected label set %q in %q (only a single class= label allowed)", i, labels, line)
				}
				continue
			}
			if !strings.HasPrefix(labels, `le="`) || strings.Contains(labels, ",") {
				t.Fatalf("replica %d: unexpected label set %q in %q (only le= buckets allowed)", i, labels, line)
			}
		}
		m := scrapeMetrics(t, rep.ts)
		submitted += m["offsimd_jobs_submitted_total"]
		queueWaits += m["offsimd_queue_wait_seconds_count"]
		owned += m["offsimd_ring_owned_keys"]
	}
	// Each of the 4 points was submitted exactly once fleet-wide and
	// went through exactly one replica's queue: sweeps route, they
	// don't duplicate.
	if submitted < 4 {
		t.Fatalf("fleet-wide jobs_submitted_total = %v, want >= 4", submitted)
	}
	if queueWaits < 4 {
		t.Fatalf("fleet-wide queue_wait observations = %v, want >= 4 (sweep work must flow through the canonical queue)", queueWaits)
	}
	// Every computed point is cached on its ring owner and nowhere
	// else, so the ownership gauges sum to the number of distinct keys.
	if owned != 4 {
		t.Fatalf("fleet-wide ring_owned_keys = %v, want 4 (one shard owner per key)", owned)
	}
	m := scrapeMetrics(t, fl.reps[0].ts)
	if m["offsimd_sweeps_total"] != 1 || m["offsimd_sweep_points_total"] != 4 {
		t.Fatalf("sweep counters = %v sweeps / %v points, want 1 / 4",
			m["offsimd_sweeps_total"], m["offsimd_sweep_points_total"])
	}
}
