package sim

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"offloadsim/internal/workloads"
)

// parTestConfig is a small multi-core configuration exercising the
// off-load path, sized so the full determinism sweep stays fast.
func parTestConfig(t *testing.T, name string) Config {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	cfg := DefaultConfig(w)
	cfg.UserCores = 4
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 150_000
	cfg.Parallel = DefaultParallel()
	return cfg
}

func runJSON(t *testing.T, cfg Config) ([]byte, Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	r := s.Run()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b, r
}

// TestParallelDeterminism is the engine's core contract: the result JSON
// is byte-identical run-to-run and across every Workers setting,
// including the inline workers=1 path and an oversubscribed pool.
func TestParallelDeterminism(t *testing.T) {
	cfg := parTestConfig(t, "apache")
	workerSweep := []int{1, 2, runtime.GOMAXPROCS(0), 2 * runtime.GOMAXPROCS(0)}

	cfg.Parallel.Workers = 1
	ref, res := runJSON(t, cfg)
	if res.Parallel == nil {
		t.Fatalf("parallel run missing Parallel provenance")
	}
	if res.Parallel.Quanta == 0 {
		t.Fatalf("parallel run recorded zero quanta")
	}
	for _, wk := range workerSweep {
		cfg.Parallel.Workers = wk
		for rep := 0; rep < 2; rep++ {
			got, _ := runJSON(t, cfg)
			if string(got) != string(ref) {
				t.Fatalf("workers=%d rep=%d: result differs from workers=1 reference\n got: %s\n ref: %s",
					wk, rep, got, ref)
			}
		}
	}
}

// TestParallelInvariantsHold verifies the barrier reconciliation leaves
// the directory and caches exactly consistent: the serial coherence
// paths used for barrier off-load execution panic on any drift, and
// CheckInvariants is the same predicate they rely on.
func TestParallelInvariantsHold(t *testing.T) {
	for _, name := range []string{"apache", "blackscholes"} {
		cfg := parTestConfig(t, name)
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.Run()
		if err := s.sys.CheckInvariants(); err != nil {
			t.Fatalf("%s: post-run invariant violation: %v", name, err)
		}
	}
}

// TestParallelQuantumSweep checks the knob works the way the design
// says: shrinking the quantum tightens synchronization, so the
// throughput error versus the serial engine must not grow as the
// quantum shrinks (allowing slack for non-monotonic noise at a point).
func TestParallelQuantumSweep(t *testing.T) {
	cfg := parTestConfig(t, "apache")
	cfg.Parallel = Parallel{}
	_, serial := runJSON(t, cfg)
	if serial.Throughput <= 0 {
		t.Fatalf("serial throughput %v", serial.Throughput)
	}

	errAt := func(q uint64) float64 {
		c := cfg
		c.Parallel = DefaultParallel()
		c.Parallel.Quantum = q
		_, r := runJSON(t, c)
		return math.Abs(r.Throughput-serial.Throughput) / serial.Throughput
	}
	coarse := errAt(100_000)
	mid := errAt(10_000)
	fine := errAt(500)
	t.Logf("quantum sweep error: q=100k %.4f, q=10k %.4f, q=500 %.4f", coarse, mid, fine)
	// Monotonic-ish: the finest quantum must beat (or match within 20%
	// relative slack) the coarsest, and stay inside the accuracy budget.
	if fine > coarse*1.2+1e-9 {
		t.Errorf("finer quantum did not reduce error: q=500 err %.4f vs q=100k err %.4f", fine, coarse)
	}
	if fine > 0.02 {
		t.Errorf("q=500 error %.4f exceeds 2%% budget", fine)
	}
}

// TestParallelSamplingCompose runs both accelerations together and
// checks the composition is itself deterministic and carries both
// provenance blocks.
func TestParallelSamplingCompose(t *testing.T) {
	cfg := parTestConfig(t, "specjbb")
	cfg.MeasureInstrs = 400_000
	cfg.Sampling = DefaultSampling()
	cfg.Sampling.IntervalInstrs = 20_000
	cfg.Sampling.Ratio = 4
	cfg.Sampling.Replicas = 1

	run := func(workers int) []byte {
		c := cfg
		c.Parallel.Workers = workers
		s, err := New(c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		r := s.Run()
		if r.Sampling == nil || r.Parallel == nil {
			t.Fatalf("composed run missing provenance: sampling=%v parallel=%v", r.Sampling, r.Parallel)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	ref := run(1)
	for _, wk := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := run(wk); string(got) != string(ref) {
			t.Fatalf("sampled+parallel differs at workers=%d", wk)
		}
	}
}

// TestParallelConfigValidation pins the config surface: Workers < 0 is
// rejected, DynamicN cannot combine with Parallel, and serial runs
// carry no Parallel provenance.
func TestParallelConfigValidation(t *testing.T) {
	cfg := parTestConfig(t, "apache")
	cfg.Parallel.Workers = -1
	if _, err := New(cfg); err == nil {
		t.Errorf("negative Workers accepted")
	}

	cfg = parTestConfig(t, "apache")
	cfg.DynamicN = true
	if _, err := New(cfg); err == nil {
		t.Errorf("Parallel+DynamicN accepted")
	}

	cfg = parTestConfig(t, "apache")
	cfg.Parallel = Parallel{}
	_, r := runJSON(t, cfg)
	if r.Parallel != nil {
		t.Errorf("serial run carries Parallel provenance")
	}
}

// TestParallelCanonicalKey pins the cache-key semantics: Workers is
// erased (it cannot change results), Quantum is kept (it can), and a
// parallel config never shares a key with its serial twin.
func TestParallelCanonicalKey(t *testing.T) {
	cfg := parTestConfig(t, "apache")
	key := func(c Config) string {
		k, err := CanonicalKey(c)
		if err != nil {
			t.Fatalf("CanonicalKey: %v", err)
		}
		return k
	}

	a := cfg
	a.Parallel.Workers = 1
	b := cfg
	b.Parallel.Workers = 8
	if key(a) != key(b) {
		t.Errorf("Workers changed the canonical key")
	}

	q := cfg
	q.Parallel.Quantum = 123
	if key(cfg) == key(q) {
		t.Errorf("Quantum did not change the canonical key")
	}

	serial := cfg
	serial.Parallel = Parallel{}
	if key(cfg) == key(serial) {
		t.Errorf("parallel and serial configs share a canonical key")
	}
}
