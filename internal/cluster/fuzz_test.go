package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/workloads"
)

// FuzzSweepRequest feeds arbitrary request bodies through the decoder
// POST /v1/sweeps uses, then through Expand. Nothing may panic,
// and an accepted grid must stay within maxSweepPoints and
// sim.MaxReplicas and name only workloads and policies that resolve,
// so expanding and running it is safe. No body reaches
// the OS-core axis, so every point has K 0, and none the parallel
// engine, so the mode is detailed or sampled (seed-3 is a refused
// parallel body). The seed corpus is committed under testdata/fuzz.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		r, points, err := req.Expand()
		if err != nil {
			return
		}
		n := len(r.Workloads) * len(r.Policies) * len(r.Thresholds) * len(r.Latencies)
		if n < 1 || n > maxSweepPoints {
			t.Fatalf("accepted a grid of %d points (cap %d): %s", n, maxSweepPoints, body)
		}
		if got := len(points); got != n {
			t.Fatalf("expanded %d points, want %d", got, n)
		}
		for _, p := range points {
			if p.OSCores != 0 {
				t.Fatalf("wire point %d has K %d; the wire has no K axis: %s", p.Index, p.OSCores, body)
			}
		}
		switch r.Mode {
		case "", "detailed", "sampled":
		default:
			t.Fatalf("accepted mode %q: %s", r.Mode, body)
		}
		if r.Replicas > sim.MaxReplicas {
			t.Fatalf("accepted %d replicas per point (cap %d): %s", r.Replicas, sim.MaxReplicas, body)
		}
		for _, wl := range r.Workloads {
			if _, ok := workloads.ByName(wl); !ok {
				t.Fatalf("accepted unknown workload %q: %s", wl, body)
			}
		}
		for _, pol := range r.Policies {
			if _, ok := policy.Parse(pol); !ok {
				t.Fatalf("accepted unknown policy %q: %s", pol, body)
			}
		}
	})
}
