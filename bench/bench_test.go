package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"offloadsim/internal/cluster"
)

// checkPhase fails the test on any failed operation and checks that
// every digested result was one the table knows, so the digest check
// really ran.
func checkPhase(t *testing.T, e *env, ph *phase, wantOps int) {
	t.Helper()
	if ph.failed > 0 {
		t.Fatalf("%d of %d operations failed: %v", ph.failed, ph.attempted, ph.errs)
	}
	if ph.ops != wantOps {
		t.Errorf("ops = %d, want %d", ph.ops, wantOps)
	}
	if len(ph.digests) == 0 {
		t.Fatal("no digests recorded")
	}
	for k := range ph.digests {
		if _, ok := e.digests[k]; !ok {
			t.Errorf("result %s is not in testdata/digests.json", k)
		}
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	tbl, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: defaultSeed, digests: tbl}
}

// The runners below take shortened job lists built from the default-seed
// lists, so their results must match the committed digests.

func TestDetailedOSRunner(t *testing.T) {
	e := testEnv(t)
	c := &closedLoop{e: e, job: func(i int) closedJob { return detailedJob(defaultSeed, i) }, rotation: 2, digestOps: 2}
	ph, err := c.measure(0)
	if err != nil {
		t.Fatal(err)
	}
	checkPhase(t, e, ph, 2)
}

func TestMulticoreRunner(t *testing.T) {
	e := testEnv(t)
	pick := []int{0, len(multicoreShapes) - 1} // K=1 and the parallel engine
	c := &closedLoop{e: e, job: func(i int) closedJob { return multicoreJob(defaultSeed, pick[i]) }, rotation: 2, digestOps: 2}
	ph, err := c.measure(0)
	if err != nil {
		t.Fatal(err)
	}
	checkPhase(t, e, ph, 2)
}

func TestSampledSweepRunner(t *testing.T) {
	e := testEnv(t)
	f, err := startFleet(false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	s := &sweepLoad{e: e, f: f, digestSweeps: 1, request: func(i int) cluster.SweepRequest {
		req := sweepRequest(defaultSeed, i)
		req.Workloads, req.Policies, req.Thresholds = []string{"apache"}, []string{"HI", "SI"}, req.Thresholds[:1]
		return req
	}}
	ph, err := s.measure(0)
	if err != nil {
		t.Fatal(err)
	}
	checkPhase(t, e, ph, 2)
}

func TestServeOpenRunner(t *testing.T) {
	e := testEnv(t)
	inst, err := setupServe(e)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serveLoad)
	defer s.close()
	// The top step offers far more than two workers serve, so the ladder
	// finds its latency-limited capacity; the closed stretches then get
	// the rest of the window.
	s.sched = schedule{low: 8, high: 8, over: 400, rounds: 1}
	ph, err := s.measure(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed > 0 {
		t.Fatalf("%d of %d requests failed: %v", ph.failed, ph.attempted, ph.errs)
	}
	for k := range ph.digests {
		if _, ok := e.digests[k]; !ok {
			t.Errorf("result %s is not in testdata/digests.json", k)
		}
	}
	if !(ph.opsPerS > 0) || !(ph.minstrPerS > 0) {
		t.Errorf("capacity %v jobs/s, %v Minstr/s: want both positive", ph.opsPerS, ph.minstrPerS)
	}
}

// tinyWorkload is one detailed job per rotation: enough to drive the
// whole reporting path, traced and untraced, in about a second each.
var tinyWorkload = workload{name: "tiny", setup: func(e *env) (instance, error) {
	return &closedLoop{e: e, job: func(i int) closedJob { return detailedJob(e.seed, i) }, rotation: 1, digestOps: 1}, nil
}}

// TestMetricsMatchBenchmarkJSON runs the tiny workload both ways and
// checks that the output names every metric BENCHMARK.json declares, with
// its unit, and that the CPU shares sum to one.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		rep, err := runWorkload(tinyWorkload, config{seed: defaultSeed, seconds: 1, traced: traced, traceDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not the summary: %v", err)
		}
		if !sum.Correct || sum.Attempted < 1 || len(sum.Metrics) != len(want) {
			t.Errorf("traced=%v summary: correct %v, attempted %d, %d metrics (want %d)",
				traced, sum.Correct, sum.Attempted, len(sum.Metrics), len(want))
		}
		shares := 0.0
		for _, m := range want {
			got, ok := sum.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s printed as %+v, want unit %s", traced, m.Name, got, m.Unit)
			}
			if !strings.Contains(out.String(), "metric "+m.Name+" ") {
				t.Errorf("traced=%v: no human-readable line for %s", traced, m.Name)
			}
			if strings.HasSuffix(m.Name, ".cpu_share") {
				shares += got.Value
			}
		}
		if traced && math.Abs(shares-1) > 0.01 {
			t.Errorf("cpu shares sum to %v, want 1", shares)
		}
	}
}

func TestAttributeDeepestRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// A helper package passes the sample to the layer that called it.
		{[]string{"runtime.mallocgc", "offloadsim/internal/rng.(*Zipf).Draw",
			"offloadsim/internal/cpu.(*Core).RunSegment", "offloadsim/internal/sim.(*Simulator).step"}, "cpu"},
		// Allocation is charged to the layer that allocated.
		{[]string{"runtime.mallocgc", "encoding/json.Marshal",
			"offloadsim/internal/server.(*Server).execute", "net/http.(*conn).serve"}, "server"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, "net"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.main"}, "runtime"},
		{[]string{"offloadsim.RunTraced"}, "sim"},
		{[]string{"offloadsim/internal/telemetry.(*Tracer).Emit", "offloadsim/internal/sim.(*Simulator).step"}, "obs"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestCapacityInterpolation(t *testing.T) {
	step := func(rate, p90 float64) *stepStat {
		return &stepStat{rate: rate, latMS: []float64{p90, p90}}
	}
	for _, tc := range []struct {
		steps []*stepStat
		want  float64
	}{
		// Passing 20 at score 0.4, failing 40 at score 1.6: the limit is
		// crossed halfway.
		{[]*stepStat{step(10, 50), step(20, 100), step(40, 400)}, 30},
		// A failing first step interpolates from rate 0.
		{[]*stepStat{step(10, 500)}, 5},
		// A growing backlog fails a step even when p90 is fine: 30 jobs
		// outstanding at 40/s is 2.5 times the allowance of 12.
		{[]*stepStat{step(20, 100), {rate: 40, latMS: []float64{100}, outstanding: 30}}, 20 + 20*0.6/2.1},
	} {
		got, err := capacity(tc.steps)
		if err != nil || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("capacity = %v, %v; want %v", got, err, tc.want)
		}
	}
	if _, err := capacity([]*stepStat{step(10, 50), step(20, 60)}); err == nil {
		t.Error("a ladder whose top step passes must be an error, not a clipped capacity")
	}
}

func TestSaturationWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	st := &stepStat{begin: t0}
	// A completion every 25 ms, 40 per second, one in four a cache hit
	// that simulated nothing; the slow last slice is partial and dropped.
	for i := 1; i <= 130; i++ {
		c := completion{at: t0.Add(time.Duration(i) * 25 * time.Millisecond), instrs: 1e6}
		if i%4 == 0 {
			c.instrs = 0
		}
		st.done = append(st.done, c)
	}
	ws := st.windows(t0.Add(3500*time.Millisecond), time.Second)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	var ph phase
	ph.setRates(ws)
	if math.Abs(ph.opsPerS-40) > 1e-9 || math.Abs(ph.minstrPerS-30) > 1e-9 {
		t.Errorf("rates %v ops/s, %v Minstr/s; want 40 and 30", ph.opsPerS, ph.minstrPerS)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v; want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{shift(10), true, "better"},
		{shift(-20), true, "worse"},
		{shift(20), false, "worse"},
		{shift(0.5), true, "same"},
	} {
		if got := verdict(base, tc.b, tc.higher, 0.1); got != tc.want {
			t.Errorf("verdict(+%v, higher=%v) = %s, want %s", tc.b[0]-base[0], tc.higher, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 55, 145, 100, 70, 130}
	if got := verdict(noisy, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s, want unresolved", got)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("want an error for a non-gzip profile")
	}
}
