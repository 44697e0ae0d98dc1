package sim

import (
	"math"

	"offloadsim/internal/stats"
)

// This file implements interval-sampled execution (Config.Sampling): the
// measurement window is cut into fixed-size instruction intervals, 1 of
// every Ratio runs at full detail and the rest run in functional-warming
// mode (caches, directory and predictor tables stay warm; cycle
// accounting is estimated). Detailed intervals are extrapolated into a
// Result; Run (run.go) fans replicas of this engine out and merges them.

// IntervalSample is the measurement of one window between two probes
// (sampleDelta): a sampled interval, a telemetry series point or a
// whole measurement window. All values are deltas over the window.
type IntervalSample struct {
	// Index is the interval's position in the measurement window.
	Index int
	// Measured marks a sampled run's detailed interval; the other
	// intervals contribute only their trace-exact covariates.
	Measured bool
	// Instrs is the workload instructions retired across user cores.
	Instrs uint64
	// Cycles is the largest per-core elapsed cycle count.
	Cycles uint64
	// PerCoreIPC is each user core's IPC over the interval.
	PerCoreIPC []float64
	// PerCoreInstrs and PerCoreCycles are the per-core deltas behind
	// PerCoreIPC; the collector aggregates them as ratios of sums so
	// longer intervals carry proportionally more weight.
	PerCoreInstrs []uint64
	PerCoreCycles []uint64
	// PerCoreOSInstrs and PerCoreOffloads are each core's privileged
	// instructions and off-load round trips: with PerCoreInstrs, the
	// trace-exact covariates of the sampled regression (regressPerCore).
	PerCoreOSInstrs []uint64
	PerCoreOffloads []uint64
	// Throughput is the sum of PerCoreIPC — the same aggregate the full
	// simulation reports.
	Throughput float64

	UserL2Hits, UserL2Accesses   uint64
	UserL1DHits, UserL1DAccesses uint64
	OSL2Hits, OSL2Accesses       uint64

	OSEntries, Offloads uint64
	OverheadCycles      uint64
	UserIdleCycles      uint64
	OSBusyCycles        uint64
	QueueDelaySum       float64
	QueueDelayCount     uint64

	C2CTransfers, Invalidations   uint64
	MemoryFills, MemoryWritebacks uint64
}

// intervalProbe is a raw snapshot of every measured counter. probe is
// the engine's only reader of them: a Result, a sampled interval and a
// telemetry series point are each the difference of two probes.
type intervalProbe struct {
	cores []coreProbe

	osL2Hits, osL2Acc uint64
	osBusy            uint64
	queueSum          float64
	queueN            uint64

	c2c, inval, fills, wb uint64
}

// coreProbe is one user core's part of a probe.
type coreProbe struct {
	clock, retired, osIns, idle uint64
	l2Hits, l2Acc               uint64
	l1dHits, l1dAcc             uint64
	entries, offloads, overhead uint64
}

func (s *Simulator) probe() intervalProbe {
	p := intervalProbe{cores: make([]coreProbe, len(s.users))}
	for i, u := range s.users {
		l2, l1d, ps := s.sys.L2(u.core.Node()), u.core.L1D(), u.pol.Stats()
		p.cores[i] = coreProbe{
			clock:    u.clock,
			retired:  u.retired,
			osIns:    u.osInstrs,
			idle:     u.core.Counters.IdleCyc.Value(),
			l2Hits:   l2.Stats.Hits.Value(),
			l2Acc:    l2.Stats.Accesses.Value(),
			l1dHits:  l1d.Stats.Hits.Value(),
			l1dAcc:   l1d.Stats.Accesses.Value(),
			entries:  ps.Entries.Value(),
			offloads: ps.Offloads.Value(),
			overhead: ps.OverheadCycles.Value(),
		}
	}
	if s.osc != nil {
		for q := 0; q < s.osc.K(); q++ {
			ol2 := s.sys.L2(s.osNode + q)
			p.osL2Hits += ol2.Stats.Hits.Value()
			p.osL2Acc += ol2.Stats.Accesses.Value()
		}
		p.osBusy = s.osc.BusyCycles()
		p.queueSum, p.queueN, _ = s.osc.QueueDelay()
	}
	cs := &s.sys.Stats
	p.c2c = cs.C2CTransfers.Value()
	p.inval = cs.Invalidations.Value()
	p.fills = cs.MemoryFills.Value()
	p.wb = s.sys.Memory().Writebacks()
	return p
}

// sampleDelta measures the window from probe before to probe after.
func sampleDelta(idx int, before, after intervalProbe) IntervalSample {
	out := IntervalSample{Index: idx}
	for i, a := range after.cores {
		b := before.cores[i]
		elapsed := a.clock - b.clock
		retired := a.retired - b.retired
		offloads := a.offloads - b.offloads
		ipc := 0.0
		if elapsed > 0 {
			ipc = float64(retired) / float64(elapsed)
		}
		out.PerCoreIPC = append(out.PerCoreIPC, ipc)
		out.PerCoreInstrs = append(out.PerCoreInstrs, retired)
		out.PerCoreCycles = append(out.PerCoreCycles, elapsed)
		out.PerCoreOSInstrs = append(out.PerCoreOSInstrs, a.osIns-b.osIns)
		out.PerCoreOffloads = append(out.PerCoreOffloads, offloads)
		out.Throughput += ipc
		out.Instrs += retired
		if elapsed > out.Cycles {
			out.Cycles = elapsed
		}
		out.UserL2Hits += a.l2Hits - b.l2Hits
		out.UserL2Accesses += a.l2Acc - b.l2Acc
		out.UserL1DHits += a.l1dHits - b.l1dHits
		out.UserL1DAccesses += a.l1dAcc - b.l1dAcc
		out.OSEntries += a.entries - b.entries
		out.Offloads += offloads
		out.OverheadCycles += a.overhead - b.overhead
		out.UserIdleCycles += a.idle - b.idle
	}
	out.OSL2Hits = after.osL2Hits - before.osL2Hits
	out.OSL2Accesses = after.osL2Acc - before.osL2Acc
	out.OSBusyCycles = after.osBusy - before.osBusy
	out.QueueDelaySum = after.queueSum - before.queueSum
	out.QueueDelayCount = after.queueN - before.queueN
	out.C2CTransfers = after.c2c - before.c2c
	out.Invalidations = after.inval - before.inval
	out.MemoryFills = after.fills - before.fills
	out.MemoryWritebacks = after.wb - before.wb
	return out
}

// setWarming flips every core — user and OS — between detailed and
// functional-warming execution at the configured stride.
func (s *Simulator) setWarming(on bool) {
	s.setWarmingStride(on, s.cfg.Sampling.WarmStride)
}

// setWarmingStride is setWarming with an explicit user-core reference
// stride (the warmup tail warms at stride 1). The OS core always warms
// at the denser OSWarmStride — its L2 sees only the minority off-loaded
// stream and decays beyond repair at the user stride — capped by the
// user stride so an explicit sparse OS stride is still honored.
func (s *Simulator) setWarmingStride(on bool, stride int) {
	for _, u := range s.users {
		u.core.SetWarming(on, stride)
	}
	osStride := s.cfg.Sampling.OSWarmStride
	if osStride > stride {
		osStride = stride
	}
	for _, oc := range s.osCores {
		oc.SetWarming(on, osStride)
	}
}

// maxMeasured returns the furthest per-core progress through the
// measurement window — the anchor for the next interval target.
func (s *Simulator) maxMeasured() uint64 {
	var m uint64
	for _, u := range s.users {
		if p := u.retired - u.retiredAtMeas; p > m {
			m = p
		}
	}
	return m
}

// runIntervals executes warmup plus measurement in interval-sampling
// mode and returns every interval of the measurement window, the input
// of collectSampled. The run is fully deterministic: segment streams,
// interval boundaries and the warming stride are all pure functions of
// the Config.
func (s *Simulator) runIntervals() []IntervalSample {
	sp := s.cfg.Sampling

	// Warmup: strided warming for the head, full-density (stride 1)
	// warming for the tail. The tail is what actually fills the
	// megabyte-scale L2 — a strided stream populates it WarmStride times
	// too slowly — while the cheap head still ages the predictor and
	// branch state over the full warmup distance.
	warmFunctional := sp.Warming == WarmFunctional
	if s.cfg.WarmupInstrs > 0 {
		tail := sp.WarmupTailInstrs
		if tail > s.cfg.WarmupInstrs {
			tail = s.cfg.WarmupInstrs
		}
		if head := s.cfg.WarmupInstrs - tail; head > 0 {
			s.setWarmingStride(warmFunctional, sp.WarmStride)
			s.runUntil(func(u *userCtx) bool { return u.retired >= head })
		}
		s.setWarmingStride(warmFunctional, 1)
		s.runUntil(func(u *userCtx) bool { return u.retired >= s.cfg.WarmupInstrs })
	}
	s.setWarming(false)
	s.resetAfterWarmup()

	// Measurement. Each Ratio-interval cycle runs DetailedWarmIntervals
	// at full detail (repairing the recency state strided warming lets
	// decay), measures the next interval, and replays the remainder in
	// warming mode — so a measured interval always sees caches warmed by
	// genuine detailed execution, not by the strided approximation.
	//
	// Interval targets track actual retirement rather than fixed
	// positions: compute-heavy workloads emit segments far longer than
	// one interval, and a fixed schedule would drift behind the cores and
	// measure empty windows.
	var intervals []IntervalSample
	total := s.cfg.MeasureInstrs
	prev := s.measureStart
	for idx := 0; ; idx++ {
		start := s.maxMeasured()
		if start >= total {
			break
		}
		target := start + sp.IntervalInstrs
		if target > total {
			target = total
		}
		pos := idx % sp.Ratio
		s.setWarming(warmFunctional && pos > sp.DetailedWarmIntervals)
		s.runUntil(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= target })
		next := s.probe()
		iv := sampleDelta(idx, prev, next)
		iv.Measured = pos == sp.DetailedWarmIntervals
		intervals = append(intervals, iv)
		prev = next
	}
	s.setWarming(false)
	return intervals
}

// collectSampled extrapolates the measured intervals into a full Result.
// Identity, window totals, predictor-accuracy and tuner fields come from
// the normal collector; rates and event counts are rebuilt from the
// measured intervals, with counts scaled by the inverse sampling fraction.
// Throughput uses the regression estimator over the trace-exact interval
// covariates when enough samples exist (see regress.go), falling back to
// the ratio-of-sums expansion otherwise.
func (s *Simulator) collectSampled(intervals []IntervalSample) Result {
	r := s.collect()

	var agg IntervalSample
	var samples []IntervalSample
	retiredSum := make([]uint64, len(s.users))
	elapsedSum := make([]uint64, len(s.users))
	for _, smp := range intervals {
		if !smp.Measured {
			continue
		}
		samples = append(samples, smp)
		agg.Instrs += smp.Instrs
		agg.Cycles += smp.Cycles
		agg.UserL2Hits += smp.UserL2Hits
		agg.UserL2Accesses += smp.UserL2Accesses
		agg.UserL1DHits += smp.UserL1DHits
		agg.UserL1DAccesses += smp.UserL1DAccesses
		agg.OSL2Hits += smp.OSL2Hits
		agg.OSL2Accesses += smp.OSL2Accesses
		agg.OSEntries += smp.OSEntries
		agg.Offloads += smp.Offloads
		agg.OverheadCycles += smp.OverheadCycles
		agg.UserIdleCycles += smp.UserIdleCycles
		agg.OSBusyCycles += smp.OSBusyCycles
		agg.QueueDelaySum += smp.QueueDelaySum
		agg.QueueDelayCount += smp.QueueDelayCount
		agg.C2CTransfers += smp.C2CTransfers
		agg.Invalidations += smp.Invalidations
		agg.MemoryFills += smp.MemoryFills
		agg.MemoryWritebacks += smp.MemoryWritebacks
		for i := range smp.PerCoreInstrs {
			retiredSum[i] += smp.PerCoreInstrs[i]
			elapsedSum[i] += smp.PerCoreCycles[i]
		}
	}

	// Ratio of sums, not mean of ratios: a long interval contributes in
	// proportion to its length, and short noisy intervals cannot skew
	// the estimate. This is also the fallback when the regression
	// estimator below cannot run.
	perCore := make([]float64, len(s.users))
	for i := range perCore {
		perCore[i] = stats.Ratio(retiredSum[i], elapsedSum[i])
	}
	estimator := regressPerCore(intervals, samples, perCore)
	r.Throughput = 0
	for _, ipc := range perCore {
		r.Throughput += ipc
	}
	r.PerCoreIPC = perCore

	scale := 1.0
	if agg.Instrs > 0 {
		scale = float64(r.Instrs) / float64(agg.Instrs)
	}
	r.setCounts(agg, scale)
	if slots := s.osSlotsTotal(); slots > 0 && agg.Cycles > 0 {
		r.OSCoreUtilization = float64(agg.OSBusyCycles) / (float64(agg.Cycles) * float64(slots))
	}

	sp := s.cfg.Sampling
	totalIntervals := int((s.cfg.MeasureInstrs + sp.IntervalInstrs - 1) / sp.IntervalInstrs)
	r.Sampling = &SamplingProvenance{
		Intervals:        len(samples),
		TotalIntervals:   totalIntervals,
		Replicas:         1,
		SampledFraction:  1 / scale,
		Estimator:        estimator,
		ThroughputRelErr: throughputRelErr(samples),
	}
	return r
}

// covariates is core c's regression row for the interval: an intercept,
// then its instructions, privileged instructions and off-loads.
func (iv IntervalSample) covariates(c int) []float64 {
	return []float64{1, float64(iv.PerCoreInstrs[c]), float64(iv.PerCoreOSInstrs[c]), float64(iv.PerCoreOffloads[c])}
}

// regressPerCore replaces perCore with regression-extrapolated IPCs when
// possible and reports the estimator actually used. For each core it
// fits the measured samples' cycle counts against their trace-exact
// covariates and evaluates the fit at the covariate totals of every
// interval of the measurement window, which every interval — warming
// included — has observed exactly.
func regressPerCore(intervals, samples []IntervalSample, perCore []float64) string {
	if len(samples) < olsMinSamples {
		return "ratio"
	}
	xTot := make([][]float64, len(perCore))
	for c := range xTot {
		xTot[c] = make([]float64, 4)
	}
	for _, iv := range intervals {
		for c, x := range xTot {
			for j, v := range iv.covariates(c) {
				x[j] += v
			}
		}
	}

	ipc := make([]float64, len(perCore))
	for c := range ipc {
		xs := make([][]float64, len(samples))
		ys := make([]float64, len(samples))
		for k, m := range samples {
			xs[k] = m.covariates(c)
			ys[k] = float64(m.PerCoreCycles[c])
		}
		// The intervals partition the window, so the instruction
		// covariate's total is the core's measured instruction count.
		insTot := xTot[c][1]
		cycTot, ok := olsTotal(xs, ys, xTot[c])
		if !ok || cycTot <= 0 {
			return "ratio"
		}
		// Cores retire at most one instruction per cycle, so the cycle
		// total can never undercut the instruction total; a fit that
		// tries marks extrapolation beyond the data's support.
		if cycTot < insTot {
			cycTot = insTot
		}
		ipc[c] = insTot / cycTot
	}
	copy(perCore, ipc)
	return "regression"
}

// throughputRelErr returns the 95% confidence half-width of the mean
// interval throughput, relative to that mean — the headline error
// estimate of an extrapolated run.
func throughputRelErr(samples []IntervalSample) float64 {
	if len(samples) < 2 {
		return 0
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.Throughput
	}
	mean /= float64(len(samples))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, s := range samples {
		d := s.Throughput - mean
		ss += float64(d * d)
	}
	sd := math.Sqrt(ss / float64(len(samples)-1))
	return 1.96 * sd / math.Sqrt(float64(len(samples))) / mean
}
