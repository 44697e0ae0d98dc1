// Package enginebench holds the shared bodies of the detailed-engine
// microbenchmarks: cache hit access, directory-backed miss service, core
// segment stepping and the end-to-end detailed run. Each hot-path package
// wraps these in a conventional Benchmark function, and the
// BENCH_engine.json writer at the repository root runs the same bodies
// through testing.Benchmark, so the numbers developers see in `go test
// -bench` and the numbers the bench trajectory records are one
// measurement.
package enginebench

import (
	"testing"

	"offloadsim/internal/cache"
	"offloadsim/internal/coherence"
	"offloadsim/internal/cpu"
	"offloadsim/internal/policy"
	"offloadsim/internal/rng"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/trace"
	"offloadsim/internal/workloads"
)

// CacheProbe measures one steady-state L2 hit access (presence lookup
// plus replacement touch) over a Table II 1 MB 16-way array with every
// way of the probed sets valid — the access the detailed loop performs
// for every L1-missing reference that L2 still holds.
func CacheProbe(b *testing.B) {
	cfg := coherence.DefaultL2Config()
	c := cache.MustNew(cfg)
	// Fill 1024 consecutive line addresses (64 sets x 16 ways).
	const span = 1024
	for la := uint64(0); la < span; la++ {
		c.Allocate(la, cache.Shared)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := uint64(i) & (span - 1)
		if st := c.Probe(la); st == cache.Invalid {
			b.Fatalf("line %#x absent", la)
		}
	}
}

// DirectoryMiss measures the coherent miss path: every read misses the
// private L2 (working set twice its capacity) and runs the directory
// lookup, entry management and memory fill — the path the open-addressed
// directory table exists to make cheap.
func DirectoryMiss(b *testing.B) {
	sys := coherence.MustNew(coherence.DefaultConfig())
	l2cfg := coherence.DefaultL2Config()
	span := uint64(2 * l2cfg.SizeBytes / l2cfg.LineBytes) // 2x L2 capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Read(0, uint64(i)%span)
	}
}

// DirectoryLookup measures a steady-state directory transaction with no
// allocation: two nodes alternately write the same small line set, so
// every access is an ownership transfer through an existing directory
// entry (lookup + sharer bookkeeping, no entry churn).
func DirectoryLookup(b *testing.B) {
	sys := coherence.MustNew(coherence.DefaultConfig())
	const span = 256
	for la := uint64(0); la < span; la++ {
		sys.Write(0, la)
		sys.Write(1, la)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The writing node alternates per pass over the line set, so
		// every write is an ownership transfer serviced through the
		// directory, never a private-cache hit.
		sys.Write((i>>8)&1, uint64(i)&(span-1))
	}
}

// stepFixture builds a one-core detailed system with a pre-generated
// segment pool for CoreStep and the allocation regression tests.
type stepFixture struct {
	core *cpu.Core
	segs []trace.Segment
}

func newStepFixture(nSegs int) *stepFixture {
	root := rng.New(7)
	root.Fork() // unread: keeps the kernel and generator streams sim.New draws
	sys := coherence.MustNew(coherence.DefaultConfig())
	c := cpu.MustNew(0, 0, cpu.DefaultConfig(), sys)
	space := &trace.AddressSpace{}
	kernel := trace.NewKernelLayout(space, root.Fork())
	gen := trace.MustNewGenerator(workloads.Apache(), 0, kernel, space, root.Fork())
	segs := make([]trace.Segment, nSegs)
	for i := range segs {
		segs[i] = gen.Next()
	}
	return &stepFixture{core: c, segs: segs}
}

// warm drives every pooled segment through the core once so cache arrays
// and the directory reach steady state before measurement.
func (f *stepFixture) warm() {
	for i := range f.segs {
		f.core.RunSegment(&f.segs[i])
	}
}

// CoreStep measures the detailed per-segment step — the inner loop of
// the whole simulator — over a pooled segment stream in steady state. It
// reports instructions per op so ns/op divided by it gives the real
// per-instruction cost, and allocations, which must be zero.
func CoreStep(b *testing.B) {
	f := newStepFixture(256)
	f.warm()
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := &f.segs[i&255]
		f.core.RunSegment(seg)
		instrs += uint64(seg.Instrs)
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// CoreStepAllocs returns the steady-state allocations of one detailed
// segment step, for the regression test that pins it at zero.
func CoreStepAllocs(runs int) float64 {
	f := newStepFixture(256)
	f.warm()
	i := 0
	return testing.AllocsPerRun(runs, func() {
		f.core.RunSegment(&f.segs[i&255])
		i++
	})
}

// detailedConfig is the end-to-end measurement configuration: one apache
// core under the hardware predictor at N=100, 1M detailed instructions,
// no warmup (construction and cold caches are part of what a sweep
// pays).
func detailedConfig() sim.Config {
	cfg := sim.DefaultConfig(workloads.Apache())
	cfg.Policy = policy.HardwarePredictor
	cfg.Threshold = 100
	cfg.WarmupInstrs = 0
	cfg.MeasureInstrs = 1_000_000
	return cfg
}

// DetailedRun measures end-to-end detailed-mode throughput in simulated
// instructions per wall second — the number that bounds every sweep.
func DetailedRun(b *testing.B) {
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustNew(detailedConfig()).Run()
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// TracedRun is DetailedRun with the telemetry layer attached — event
// trace plus 50k-instruction interval series — measuring the enabled
// cost of instrumentation. The disabled cost is gated separately at the
// repository root (`make telemetry-overhead`): DetailedRun itself
// exercises the nil-tracer fast path.
func TracedRun(b *testing.B) {
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.MustNew(detailedConfig())
		if _, err := s.AttachTelemetry(telemetry.Options{Events: true, IntervalInstrs: 50_000}); err != nil {
			b.Fatal(err)
		}
		res := s.Run()
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// parallelConfig is DetailedRun's configuration at the parallel
// engine's target scale: eight apache cores under the hardware
// predictor, run through the quantum-synchronized engine.
func parallelConfig(workers int) sim.Config {
	cfg := detailedConfig()
	cfg.UserCores = 8
	cfg.MeasureInstrs = 250_000 // per core; 2M total, matching DetailedRun's budget x2
	cfg.Parallel = sim.DefaultParallel()
	cfg.Parallel.Workers = workers
	return cfg
}

// ParallelRun measures end-to-end quantum-parallel throughput in
// simulated instructions per wall second at the default worker count
// (GOMAXPROCS). Compare against SerialMulticoreRun for the speedup.
func ParallelRun(b *testing.B) {
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.MustNew(parallelConfig(0)).Run()
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// ParallelRunWorkers returns a benchmark body running the parallel
// engine at a fixed worker count, for the per-worker scaling curve
// `make bench-parallel` records.
func ParallelRunWorkers(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		var instrs uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := sim.MustNew(parallelConfig(workers)).Run()
			instrs += res.Instrs
		}
		b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
	}
}

// SerialMulticoreRun is ParallelRun's reference: the identical
// eight-core configuration on the serial detailed engine.
func SerialMulticoreRun(b *testing.B) {
	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := parallelConfig(0)
		cfg.Parallel = sim.Parallel{}
		res := sim.MustNew(cfg).Run()
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}
