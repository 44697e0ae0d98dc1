package sim

import (
	"fmt"
	"math"
	"runtime"

	"offloadsim/internal/parallel"
	"offloadsim/internal/telemetry"
)

// Run builds and runs cfg on the engine its config selects: the serial
// or parallel detailed engine (Config.Parallel), or interval sampling
// (Config.Sampling). A sampled config is canonicalized and runs as
// Sampling.Replicas independent replicas — seeds Seed, Seed+1, … — on
// up to GOMAXPROCS goroutines, merged in seed order, so the Result is
// byte-identical at any host parallelism.
func Run(cfg Config) (Result, error) {
	if !cfg.Sampling.Enabled {
		s, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		return s.Run(), nil
	}
	cc, err := Canonicalize(cfg)
	if err != nil {
		return Result{}, err
	}
	errs := make([]error, cc.Sampling.Replicas)
	reps := parallel.Map(runtime.GOMAXPROCS(0), len(errs), func(i int) Result {
		rcfg := cc
		rcfg.Seed += uint64(i)
		rcfg.Sampling.Replicas = 1
		s, err := New(rcfg)
		if err != nil {
			errs[i] = err
			return Result{}
		}
		return s.Run()
	})
	for i, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("sim: replica %d: %w", i, err)
		}
	}
	return mergeReplicas(reps), nil
}

// RunTraced builds and runs cfg with telemetry attached (AttachTelemetry):
// detailed or parallel configs only, since sampled execution has no
// cycle-accurate timeline. Tracing never perturbs the Result: it is
// byte-identical to Run's for the same Config.
func RunTraced(cfg Config, opts telemetry.Options) (Result, *telemetry.Capture, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	trc, err := s.AttachTelemetry(opts)
	if err != nil {
		return Result{}, nil, err
	}
	res := s.Run()
	return res, trc.Capture(), nil
}

// mergeReplicas folds sampled replica Results into replica 0's, in seed
// order. Identity and end-of-run fields keep replica 0's values,
// measured metrics become cross-replica means, and interval counts
// accumulate. With more than one replica the headline error estimate
// comes from the replica spread; a single replica keeps the spread of
// its own intervals.
func mergeReplicas(reps []Result) Result {
	n := len(reps)
	out := reps[0]
	if n > 1 {
		fm := func(get func(*Result) float64) float64 {
			var sum float64
			for i := range reps {
				sum += get(&reps[i])
			}
			return sum / float64(n)
		}
		um := func(get func(*Result) uint64) uint64 {
			var sum float64
			for i := range reps {
				sum += float64(get(&reps[i]))
			}
			return uint64(sum/float64(n) + 0.5)
		}
		out.Throughput = fm(func(r *Result) float64 { return r.Throughput })
		for c := range out.PerCoreIPC {
			out.PerCoreIPC[c] = fm(func(r *Result) float64 { return r.PerCoreIPC[c] })
		}
		out.Instrs = um(func(r *Result) uint64 { return r.Instrs })
		out.Cycles = um(func(r *Result) uint64 { return r.Cycles })
		out.UserL2HitRate = fm(func(r *Result) float64 { return r.UserL2HitRate })
		out.OSL2HitRate = fm(func(r *Result) float64 { return r.OSL2HitRate })
		out.UserL1DHit = fm(func(r *Result) float64 { return r.UserL1DHit })
		out.OSEntries = um(func(r *Result) uint64 { return r.OSEntries })
		out.Offloads = um(func(r *Result) uint64 { return r.Offloads })
		out.OffloadRate = fm(func(r *Result) float64 { return r.OffloadRate })
		out.OverheadCycles = um(func(r *Result) uint64 { return r.OverheadCycles })
		out.OSCoreUtilization = fm(func(r *Result) float64 { return r.OSCoreUtilization })
		out.MeanQueueDelay = fm(func(r *Result) float64 { return r.MeanQueueDelay })
		out.MaxQueueDelay = fm(func(r *Result) float64 { return r.MaxQueueDelay })
		out.C2CTransfers = um(func(r *Result) uint64 { return r.C2CTransfers })
		out.Invalidations = um(func(r *Result) uint64 { return r.Invalidations })
		out.MemoryFills = um(func(r *Result) uint64 { return r.MemoryFills })
		out.MemoryWritebacks = um(func(r *Result) uint64 { return r.MemoryWritebacks })
		out.UserIdleCycles = um(func(r *Result) uint64 { return r.UserIdleCycles })
		out.OSBusyCycles = um(func(r *Result) uint64 { return r.OSBusyCycles })
		out.PredictorExact = fm(func(r *Result) float64 { return r.PredictorExact })
		out.PredictorWithin5 = fm(func(r *Result) float64 { return r.PredictorWithin5 })
		out.BinaryAccuracy = fm(func(r *Result) float64 { return r.BinaryAccuracy })
		out.AllEntryExact = fm(func(r *Result) float64 { return r.AllEntryExact })
		out.AllEntryBinaryAccuracy = fm(func(r *Result) float64 { return r.AllEntryBinaryAccuracy })
	}

	prov := *reps[0].Sampling
	for _, r := range reps[1:] {
		p := r.Sampling
		prov.Intervals += p.Intervals
		prov.TotalIntervals += p.TotalIntervals
		prov.SampledFraction += p.SampledFraction
		if p.Estimator != prov.Estimator {
			prov.Estimator = "mixed"
		}
	}
	prov.SampledFraction /= float64(n)
	prov.Replicas = n
	if n > 1 {
		// The 95% confidence half-width of the mean replica throughput
		// (out.Throughput), relative to that mean.
		var ss float64
		for _, r := range reps {
			d := r.Throughput - out.Throughput
			ss += float64(d * d)
		}
		prov.ThroughputRelErr = 0
		if out.Throughput != 0 {
			stdErr := math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
			prov.ThroughputRelErr = 1.96 * stdErr / math.Abs(out.Throughput)
		}
	}
	out.Sampling = &prov
	return out
}
