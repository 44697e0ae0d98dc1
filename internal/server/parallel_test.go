package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestParallelModeSpec: no front end runs the quantum-parallel engine.
// The spec refuses mode parallel and names the modes it has, and a body
// that names the engine's old workers field, even at 0, fails the
// strict decoder every job route uses.
func TestParallelModeSpec(t *testing.T) {
	spec := smallSpec(1)
	spec.Mode = "parallel"
	spec.Cores = 4
	_, err := spec.Config()
	if want := `unknown mode "parallel" (detailed, sampled)`; err == nil || err.Error() != want {
		t.Errorf("mode parallel: error %v, want %q", err, want)
	}
	for _, body := range []string{
		`{"workload":"apache","workers":0}`,
		`{"workload":"apache","mode":"parallel","workers":2,"cores":8}`,
	} {
		var spec JobSpec
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err == nil || !strings.Contains(err.Error(), `unknown field "workers"`) {
			t.Errorf("%s: decode error %v, want unknown field \"workers\"", body, err)
		}
	}
}

// TestParallelModeEndToEnd: every POST route answers a parallel-mode
// body with a 400 that names the mode, admits nothing, and /metrics
// carries neither series that parallel jobs used to feed.
func TestParallelModeEndToEnd(t *testing.T) {
	srv := New(Options{QueueSize: 8, Workers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	for _, tc := range []struct{ route, body string }{
		{"/v1/jobs", `{"workload":"apache","mode":"parallel","cores":4}`},
		{"/v1/peer/execute", `{"workload":"apache","mode":"parallel","cores":4}`},
		{"/v1/sweeps", `{"workloads":["apache"],"mode":"parallel"}`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.route, strings.NewReader(tc.body)))
		var apiErr apiError
		_ = json.Unmarshal(rec.Body.Bytes(), &apiErr)
		if rec.Code != http.StatusBadRequest || !strings.Contains(apiErr.Error, `unknown mode "parallel"`) {
			t.Errorf("POST %s: HTTP %d %q, want 400 naming mode \"parallel\"", tc.route, rec.Code, apiErr.Error)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metrics := rec.Body.String()
	for _, want := range []string{"\noffsimd_jobs_submitted_total 0\n", "\noffsimd_sweeps_total 0\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
	for _, gone := range []string{"offsimd_jobs_parallel_total", "offsimd_reserved_worker_slots"} {
		if strings.Contains(metrics, gone) {
			t.Errorf("removed series %s still exported", gone)
		}
	}
}
