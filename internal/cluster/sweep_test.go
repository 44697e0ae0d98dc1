package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
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

// start expands req and starts it on c, failing the test if Expand
// refuses it.
func start(t *testing.T, ctx context.Context, c *Coordinator, id string, req SweepRequest) *Sweep {
	t.Helper()
	req, points, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return c.Start(ctx, id, req, points)
}

func TestSweepCoordinatorStreamsInOrder(t *testing.T) {
	calls := map[string]int{}
	var mu sync.Mutex
	c := &Coordinator{RunPoint: fakeRunPoint(t, calls, &mu)}
	s := start(t, context.Background(), c, "s-1", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Policies:   []string{"HI", "SI"},
		Thresholds: []int{100, 1000},
		Latencies:  []int{100},
	})
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
		if p.Workload == "derby" && p.Index >= 0 {
			return nil, fmt.Errorf("synthetic failure")
		}
		return json.Marshal(sim.Result{Workload: p.Workload, Policy: p.Policy, Throughput: 1})
	}}
	norm := false
	s := start(t, context.Background(), c, "s-2", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Thresholds: []int{100},
		Normalize:  &norm,
	})
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
		t.Errorf("apache point: %+v", lines[0])
	}
	if lines[1].Status != "failed" || lines[1].Error == "" || lines[1].Row != nil {
		t.Errorf("derby point: %+v", lines[1])
	}
	// Normalize off leaves Normalized at zero.
	if lines[0].Row.Normalized != 0 {
		t.Errorf("normalized = %v with normalization off", lines[0].Row.Normalized)
	}
	prog := s.Progress()
	if prog.Done != 1 || prog.Failed != 1 || !prog.Complete {
		t.Errorf("progress = %+v", prog)
	}

	// Shape-level validation, and each point's config, fire before any
	// execution.
	for _, bad := range []SweepRequest{
		{},
		{Workloads: []string{"apache", "nope"}},
		{Workloads: []string{"apache"}, Policies: []string{"HI", "warp"}},
		{Workloads: []string{"apache"}, Policies: []string{"HI", ""}},
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
		if _, _, err := bad.Expand(); err == nil {
			t.Errorf("invalid request with %d workloads, %d thresholds accepted",
				len(bad.Workloads), len(bad.Thresholds))
		}
	}
	// A grid of exactly maxSweepPoints is accepted.
	if _, _, err := (SweepRequest{Workloads: []string{"apache", "derby"}, Thresholds: make([]int, 64),
		Latencies: make([]int, 32)}).Expand(); err != nil {
		t.Errorf("grid of %d points rejected: %v", maxSweepPoints, err)
	}
	if _, _, err := (SweepRequest{Workloads: []string{"apache"}, Mode: "sampled",
		Replicas: sim.MaxReplicas}).Expand(); err != nil {
		t.Errorf("%d replicas rejected: %v", sim.MaxReplicas, err)
	}
}

// TestSweepBaselineFailurePropagates: when a workload's baseline run
// fails, every grid point of that workload fails with a diagnosable
// error instead of dividing by zero or hanging, and the other
// workload's points are unaffected. With one slot the failure is known
// before the workload's first point could start, so none is issued.
func TestSweepBaselineFailurePropagates(t *testing.T) {
	for _, conc := range []int{1, DefaultSweepConcurrency} {
		var mu sync.Mutex
		derbyPoints := 0
		c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
			if p.Workload == "derby" {
				if p.Policy == "baseline" {
					return nil, fmt.Errorf("baseline exploded")
				}
				mu.Lock()
				derbyPoints++
				mu.Unlock()
			}
			return json.Marshal(sim.Result{Policy: p.Policy, Throughput: 1})
		}}
		s := start(t, context.Background(), c, "s-3", SweepRequest{
			Workloads:   []string{"derby", "apache"},
			Thresholds:  []int{100, 1000},
			Concurrency: conc,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var lines []*PointResult
		if err := s.Stream(ctx, func(pr *PointResult) error { lines = append(lines, pr); return nil }); err != nil {
			t.Fatal(err)
		}
		cancel()
		if len(lines) != 4 {
			t.Fatalf("concurrency %d: streamed %d lines, want 4", conc, len(lines))
		}
		for _, pr := range lines {
			switch pr.Workload {
			case "derby":
				if pr.Status != "failed" || pr.Error != "baseline for derby: baseline exploded" || pr.Row != nil {
					t.Errorf("concurrency %d: derby point %+v, want failed with the baseline's error", conc, pr)
				}
			default:
				if pr.Status != "done" || pr.Row == nil || pr.Row.Normalized != 1 {
					t.Errorf("concurrency %d: apache point %+v, want done and normalized", conc, pr)
				}
			}
		}
		mu.Lock()
		if conc == 1 && derbyPoints != 0 {
			t.Errorf("concurrency 1: %d derby grid points ran after their baseline failed", derbyPoints)
		}
		mu.Unlock()
	}
}

// TestSweepProgressCountsIssuedPoints: points that fail because their
// baseline failed were never running, so they must not lower the
// running count of points that are.
func TestSweepProgressCountsIssuedPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	release := make(chan struct{})
	c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		switch {
		case p.Workload == "derby" && p.Policy == "baseline":
			return nil, fmt.Errorf("baseline exploded")
		case p.Workload == "apache" && p.Index >= 0:
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.Marshal(sim.Result{Policy: p.Policy, Throughput: 1})
	}}
	s := start(t, ctx, c, "s-4", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Thresholds: []int{100, 1000},
	})
	// Points 2 and 3 are derby's; the apache points 0 and 1 block.
	for _, i := range []int{2, 3} {
		select {
		case <-s.ready[i]:
		case <-time.After(10 * time.Second):
			t.Fatalf("derby point %d never failed", i)
		}
	}
	want := Progress{ID: "s-4", Total: 4, Failed: 2, Running: 2}
	if got := s.Progress(); got != want {
		t.Errorf("progress while apache points block = %+v, want %+v", got, want)
	}
	close(release)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := s.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	want = Progress{ID: "s-4", Total: 4, Done: 2, Failed: 2, Complete: true}
	if got := s.Progress(); got != want {
		t.Errorf("final progress = %+v, want %+v", got, want)
	}
}

// TestSweepStreamsBeforeLaterBaselines: a workload's rows need only its
// own baseline, so they stream while a later workload's baseline is
// still running. The fake holds derby's baseline until every apache row
// has been emitted.
func TestSweepStreamsBeforeLaterBaselines(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	apacheRows := make(chan struct{})
	c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		res := sim.Result{Policy: p.Policy, Throughput: 2}
		if p.Policy == "baseline" {
			res.Throughput = 1
			if p.Workload == "derby" {
				select {
				case <-apacheRows:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
		}
		return json.Marshal(res)
	}}
	s := start(t, ctx, c, "s-5", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Thresholds: []int{100, 1000},
	})
	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	var lines []*PointResult
	err := s.Stream(sctx, func(pr *PointResult) error {
		lines = append(lines, pr)
		if len(lines) == 2 {
			close(apacheRows)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream after %d rows: %v (apache rows waited for derby's baseline)", len(lines), err)
	}
	for i, pr := range lines {
		if pr.Index != i || pr.Status != "done" || pr.Row == nil || pr.Row.Normalized != 2 {
			t.Errorf("line %d = %+v, want point %d done with normalized 2", i, pr, i)
		}
	}
}

// TestSweepIssuesInIndexOrder: RunPoint is called in issue order, each
// workload's baseline just before its first grid point. At GOMAXPROCS=1
// the scheduler runs the goroutine started last first, so this fails if
// the coordinator stops waiting for each started point to reach RunPoint.
func TestSweepIssuesInIndexOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 6 // 2 workloads x 2 thresholds, plus 2 baselines
	called := make(chan string, total)
	release := make(chan struct{})
	c := &Coordinator{RunPoint: func(ctx context.Context, req SweepRequest, p Point) ([]byte, error) {
		called <- fmt.Sprintf("%s/%s/%d", p.Workload, p.Policy, p.Threshold)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.Marshal(sim.Result{Policy: p.Policy, Throughput: 1})
	}}
	s := start(t, ctx, c, "s-7", SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Thresholds: []int{100, 1000},
	})
	want := []string{
		"apache/baseline/1000", "apache/HI/100", "apache/HI/1000",
		"derby/baseline/1000", "derby/HI/100", "derby/HI/1000",
	}
	for i, w := range want {
		select {
		case got := <-called:
			if got != w {
				t.Errorf("RunPoint call %d = %s, want %s", i, got, w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d RunPoint calls", i, total)
		}
	}
	close(release)
	wctx, wcancel := context.WithTimeout(ctx, 10*time.Second)
	defer wcancel()
	if err := s.Wait(wctx); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRepeatedWorkloadOneBaseline: a workload listed twice still
// has one baseline run, shared by the points of both listings.
func TestSweepRepeatedWorkloadOneBaseline(t *testing.T) {
	calls := map[string]int{}
	var mu sync.Mutex
	c := &Coordinator{RunPoint: fakeRunPoint(t, calls, &mu)}
	s := start(t, context.Background(), c, "s-6", SweepRequest{Workloads: []string{"apache", "apache"}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var lines []*PointResult
	if err := s.Stream(ctx, func(pr *PointResult) error { lines = append(lines, pr); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2", len(lines))
	}
	for _, pr := range lines {
		if pr.Status != "done" || pr.Row == nil || pr.Row.Normalized <= 1 {
			t.Errorf("point %+v, want done and normalized against the 0.5 baseline", pr)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if n := calls["apache/baseline/1000/100"]; n != 1 {
		t.Errorf("apache baseline ran %d times, want once", n)
	}
	if n := calls["apache/HI/100/100"]; n != 2 {
		t.Errorf("apache grid point ran %d times, want once per listing", n)
	}
}
