package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
)

// traceSpec is smallSpec with telemetry capture requested.
func traceSpec(seed uint64) JobSpec {
	spec := smallSpec(seed)
	spec.Trace = true
	spec.TraceIntervalInstrs = 5_000
	return spec
}

func getTrace(t *testing.T, ts *httptest.Server, id, query string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/traces/" + id + query)
	if err != nil {
		t.Fatalf("GET /v1/traces/%s: %v", id, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get("Content-Type")
}

// TestTraceSpecValidation pins the spec-level constraints: tracing needs
// the detailed engine, and the interval cadence needs tracing.
func TestTraceSpecValidation(t *testing.T) {
	sampled := traceSpec(1)
	sampled.Mode = "sampled"
	if _, err := sampled.Config(); err == nil {
		t.Error("trace with mode sampled must be rejected")
	}
	noTrace := smallSpec(1)
	noTrace.TraceIntervalInstrs = 5_000
	if _, err := noTrace.Config(); err == nil {
		t.Error("trace_interval_instrs without trace must be rejected")
	}
	// No front end runs the parallel engine, traced or not.
	par := traceSpec(1)
	par.Mode = "parallel"
	par.Cores = 2
	if _, err := par.Config(); err == nil {
		t.Error("trace with mode parallel must be rejected")
	}
}

// TestTraceJobEndToEnd runs a real traced simulation through the HTTP
// API and checks both export formats plus the surrounding status codes.
func TestTraceJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations are not short")
	}
	srv := New(Options{QueueSize: 16, Workers: 2})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(traceSpec(7))
	code, st, apiErr := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("trace submit: HTTP %d (%s), want 202", code, apiErr.Error)
	}
	if !st.Traced {
		t.Error("submit status does not report traced")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if fin, err := srv.Wait(ctx, st.ID); err != nil || fin.State != StateDone {
		t.Fatalf("trace job did not finish: %v / %+v", err, fin)
	}

	// Default format is a Chrome trace: one valid JSON document with a
	// traceEvents array Perfetto can load.
	code, raw, ctype := getTrace(t, ts, st.ID, "")
	if code != http.StatusOK {
		t.Fatalf("GET trace: HTTP %d: %s", code, raw)
	}
	if ctype != "application/json" {
		t.Errorf("chrome content type %q", ctype)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace has no events")
	}

	// JSONL: a meta header line followed by one JSON object per event.
	code, raw, ctype = getTrace(t, ts, st.ID, "?format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("GET trace jsonl: HTTP %d", code)
	}
	if ctype != "application/x-ndjson" {
		t.Errorf("jsonl content type %q", ctype)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("jsonl trace has %d lines", len(lines))
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("jsonl line %d is not valid JSON: %s", i, line)
		}
	}

	if code, _, _ := getTrace(t, ts, st.ID, "?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format: HTTP %d, want 400", code)
	}
	if code, _, _ := getTrace(t, ts, "j-99999999", ""); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	// A finished untraced job has no trace to serve.
	body, _ = json.Marshal(smallSpec(8))
	_, plain, _ := postJob(t, ts, body)
	if fin, err := srv.Wait(ctx, plain.ID); err != nil || fin.State != StateDone {
		t.Fatalf("plain job did not finish: %v / %+v", err, fin)
	}
	if code, _, _ := getTrace(t, ts, plain.ID, ""); code != http.StatusNotFound {
		t.Errorf("untraced job trace: HTTP %d, want 404", code)
	}

	m := scrapeMetrics(t, ts)
	if m["offsimd_jobs_traced_total"] != 1 {
		t.Errorf("jobs_traced_total = %v, want 1", m["offsimd_jobs_traced_total"])
	}
	// The PR-5 deprecated aliases are gone; only the unit-suffixed
	// canonical names remain.
	for _, gone := range []string{"offsimd_queue_depth", "offsimd_reserved_slots"} {
		if _, ok := m[gone]; ok {
			t.Errorf("removed deprecated alias %s still exported", gone)
		}
	}
	if m["offsimd_queue_wait_seconds_count"] < 2 {
		t.Errorf("queue_wait_seconds_count = %v, want >= 2", m["offsimd_queue_wait_seconds_count"])
	}
	if m["offsimd_sim_instrs_per_second_count"] < 1 {
		t.Errorf("sim_instrs_per_second_count = %v, want >= 1", m["offsimd_sim_instrs_per_second_count"])
	}
}

// TestTraceBypassesCacheAndCoalescing pins the trace-job scheduling
// contract with stubbed engines: a trace job simulates even on a warm
// cache, never coalesces onto an identical in-flight job, and still
// back-fills the cache for later untraced submissions.
func TestTraceBypassesCacheAndCoalescing(t *testing.T) {
	srv := New(Options{QueueSize: 16, Workers: 2})
	var plainRuns, tracedRuns atomic.Int64
	srv.runSim = func(sim.Config) (sim.Result, error) {
		plainRuns.Add(1)
		return sim.Result{Workload: "stub", Instrs: 1000}, nil
	}
	srv.runTraced = func(_ sim.Config, opts telemetry.Options) (sim.Result, *telemetry.Capture, error) {
		tracedRuns.Add(1)
		trc := telemetry.MustNew(opts, 1, telemetry.Meta{Workload: "stub", UserCores: 1})
		trc.Arm()
		trc.Emit(0, telemetry.Event{Time: 1, Kind: telemetry.KindOSEntry, Sys: 3, Instrs: 100})
		return sim.Result{Workload: "stub", Instrs: 1000}, trc.Capture(), nil
	}
	srv.Start()
	defer srv.Shutdown(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wait := func(id string) JobStatus {
		t.Helper()
		st, err := srv.Wait(ctx, id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s: %v / %+v", id, err, st)
		}
		return st
	}

	// Warm the cache with an untraced run.
	st1, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	wait(st1.ID)

	// Identical spec with trace: must not be served from cache.
	st2, err := srv.Submit(traceSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached || st2.Coalesced {
		t.Errorf("trace job cached=%v coalesced=%v, want neither", st2.Cached, st2.Coalesced)
	}
	fin := wait(st2.ID)
	if !fin.Traced {
		t.Error("finished trace job does not report traced")
	}
	if got := tracedRuns.Load(); got != 1 {
		t.Errorf("traced engine ran %d times, want 1", got)
	}
	cap, _, ok := srv.Trace(st2.ID)
	if !ok || cap == nil || len(cap.Events) != 1 {
		t.Fatalf("capture not stored: ok=%v cap=%+v", ok, cap)
	}

	// The trace job's result back-fills the cache: the key is shared
	// with the untraced spec, so a later untraced submission hits.
	st3, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached {
		t.Error("untraced resubmission after trace job should be a cache hit")
	}
	if got := plainRuns.Load(); got != 1 {
		t.Errorf("plain engine ran %d times, want 1", got)
	}
}

// TestTraceJobNotFinished covers the in-flight trace fetch: 409 with
// Retry-After while the simulation runs.
func TestTraceJobNotFinished(t *testing.T) {
	srv := New(Options{QueueSize: 4, Workers: 1})
	release := make(chan struct{})
	srv.runTraced = func(_ sim.Config, opts telemetry.Options) (sim.Result, *telemetry.Capture, error) {
		<-release
		trc := telemetry.MustNew(opts, 1, telemetry.Meta{UserCores: 1})
		return sim.Result{}, trc.Capture(), nil
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		close(release)
		srv.Shutdown(context.Background())
	}()

	st, err := srv.Submit(traceSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := getTrace(t, ts, st.ID, ""); code != http.StatusConflict {
		t.Errorf("in-flight trace fetch: HTTP %d, want 409", code)
	}
}
