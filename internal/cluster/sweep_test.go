package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"offloadsim/internal/sim"
)

// fakeRunPoint returns a deterministic marshaled sim.Result per point
// and records how often each point executed.
func fakeRunPoint(t *testing.T, calls map[string]int, mu *sync.Mutex) RunPointFunc {
	return func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		mu.Lock()
		calls[fmt.Sprintf("%s/%s/%d/%d", p.Workload, p.Policy, p.Threshold, p.Latency)]++
		mu.Unlock()
		res := sim.Result{
			Workload:   p.Workload,
			Policy:     p.Policy,
			Threshold:  p.Threshold,
			OneWay:     p.Latency,
			Throughput: 0.5 + float64(p.Threshold)/10_000,
		}
		if p.Policy == "baseline" {
			res.Throughput = 0.5
		}
		return json.Marshal(res)
	}
}

func TestSweepCoordinatorStreamsInOrder(t *testing.T) {
	calls := map[string]int{}
	var mu sync.Mutex
	c := &Coordinator{RunPoint: fakeRunPoint(t, calls, &mu)}
	s, err := c.Start(context.Background(), "s-1", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Policies:   []string{"HI", "SI"},
		Thresholds: []int{100, 1000},
		Latencies:  []int{100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != 8 {
		t.Fatalf("Total = %d, want 8", s.Total())
	}

	var got []*PointResult
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Stream(ctx, func(pr *PointResult) error {
		got = append(got, pr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("streamed %d points, want 8", len(got))
	}
	for i, pr := range got {
		if pr.Index != i {
			t.Errorf("line %d has index %d (stream must be in index order)", i, pr.Index)
		}
		if pr.Status != "done" || pr.Row == nil {
			t.Errorf("point %d: status %q row=%v", i, pr.Status, pr.Row)
		}
		// Normalized against the 0.5 baseline throughput.
		if pr.Row != nil && pr.Row.Normalized <= 1.0 {
			t.Errorf("point %d: normalized %.3f, want > 1 against 0.5 baseline", i, pr.Row.Normalized)
		}
	}
	prog := s.Progress()
	if !prog.Complete || prog.Done != 8 || prog.Failed != 0 || prog.Pending != 0 {
		t.Errorf("progress = %+v", prog)
	}

	mu.Lock()
	defer mu.Unlock()
	// 8 grid points + 2 baselines, each exactly once.
	if len(calls) != 10 {
		t.Errorf("executed %d distinct points, want 10: %v", len(calls), calls)
	}
	for k, n := range calls {
		if n != 1 {
			t.Errorf("point %s executed %d times", k, n)
		}
	}
}

func TestSweepCoordinatorFailuresAndValidation(t *testing.T) {
	c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		if p.Workload == "bad" && p.Index >= 0 {
			return nil, fmt.Errorf("synthetic failure")
		}
		return json.Marshal(sim.Result{Workload: p.Workload, Policy: p.Policy, Throughput: 1})
	}}
	norm := false
	s, err := c.Start(context.Background(), "s-2", SweepRequest{
		Workloads:  []string{"good", "bad"},
		Thresholds: []int{100},
		Normalize:  &norm,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var lines []*PointResult
	if err := s.Stream(ctx, func(pr *PointResult) error { lines = append(lines, pr); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(lines))
	}
	if lines[0].Status != "done" {
		t.Errorf("good point: %+v", lines[0])
	}
	if lines[1].Status != "failed" || lines[1].Error == "" || lines[1].Row != nil {
		t.Errorf("bad point: %+v", lines[1])
	}
	// Normalize off leaves Normalized at zero.
	if lines[0].Row.Normalized != 0 {
		t.Errorf("normalized = %v with normalization off", lines[0].Row.Normalized)
	}
	prog := s.Progress()
	if prog.Done != 1 || prog.Failed != 1 || !prog.Complete {
		t.Errorf("progress = %+v", prog)
	}

	// Shape-level validation fires before any execution.
	for _, bad := range []SweepRequest{
		{},
		{Workloads: []string{"apache"}, Thresholds: []int{-1}},
		{Workloads: []string{"apache"}, Latencies: []int{-5}},
		{Workloads: []string{"apache"}, Mode: "warp"},
		{Workloads: []string{"apache"}, Replicas: 3},
		{Workloads: []string{"apache"}, Mode: "sampled", Replicas: sim.MaxReplicas + 1},
		{Workloads: []string{"apache"}, Mode: "sampled", Replicas: 1 << 30},
		{Workloads: []string{"apache"}, Concurrency: -1},
		// Grids past maxSweepPoints, including products that overflow int.
		{Workloads: []string{"apache"}, Thresholds: make([]int, maxSweepPoints+1)},
		{Workloads: make([]string, 2), Thresholds: make([]int, 64), Latencies: make([]int, 33)},
		{Workloads: make([]string, 1000), Policies: make([]string, 1000),
			Thresholds: make([]int, 1000), Latencies: make([]int, 1000)},
	} {
		if _, err := c.Start(context.Background(), "s-x", bad); err == nil {
			t.Errorf("invalid request with %d workloads, %d thresholds accepted",
				len(bad.Workloads), len(bad.Thresholds))
		}
	}
	// A grid of exactly maxSweepPoints is accepted.
	if _, err := (SweepRequest{Workloads: make([]string, 2), Thresholds: make([]int, 64),
		Latencies: make([]int, 32)}).withDefaults(); err != nil {
		t.Errorf("grid of %d points rejected: %v", maxSweepPoints, err)
	}
	if _, err := (SweepRequest{Workloads: []string{"apache"}, Mode: "sampled",
		Replicas: sim.MaxReplicas}).withDefaults(); err != nil {
		t.Errorf("%d replicas rejected: %v", sim.MaxReplicas, err)
	}
}

// TestSweepBaselineFailurePropagates: when a workload's baseline run
// fails, every grid point of that workload fails with a diagnosable
// error instead of dividing by zero or hanging.
func TestSweepBaselineFailurePropagates(t *testing.T) {
	c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		if p.Policy == "baseline" {
			return nil, fmt.Errorf("baseline exploded")
		}
		return json.Marshal(sim.Result{Throughput: 1})
	}}
	s, err := c.Start(context.Background(), "s-3", SweepRequest{Workloads: []string{"apache"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var lines []*PointResult
	if err := s.Stream(ctx, func(pr *PointResult) error { lines = append(lines, pr); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || lines[0].Status != "failed" {
		t.Fatalf("lines = %+v, want one failed point", lines)
	}
}
