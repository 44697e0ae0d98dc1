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

// IntervalSample is the raw measurement of one detailed interval. All
// values are deltas over the interval.
type IntervalSample struct {
	// Index is the interval's position in the measurement window.
	Index int
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

// intervalProbe is a raw snapshot of every counter the sampled collector
// differences across a detailed interval.
type intervalProbe struct {
	clock, retired, idle        []uint64
	l2Hits, l2Acc               []uint64
	l1dHits, l1dAcc             []uint64
	entries, offloads, overhead []uint64

	osL2Hits, osL2Acc uint64
	osBusy            uint64
	queueSum          float64
	queueN            uint64

	c2c, inval, fills, wb uint64
}

func (s *Simulator) probe() intervalProbe {
	n := len(s.users)
	p := intervalProbe{
		clock: make([]uint64, n), retired: make([]uint64, n), idle: make([]uint64, n),
		l2Hits: make([]uint64, n), l2Acc: make([]uint64, n),
		l1dHits: make([]uint64, n), l1dAcc: make([]uint64, n),
		entries: make([]uint64, n), offloads: make([]uint64, n), overhead: make([]uint64, n),
	}
	for i, u := range s.users {
		p.clock[i] = u.clock
		p.retired[i] = u.retired
		p.idle[i] = u.core.Counters.IdleCyc.Value()
		l2 := s.sys.L2(u.core.Node())
		p.l2Hits[i] = l2.Stats.Hits.Value()
		p.l2Acc[i] = l2.Stats.Accesses.Value()
		p.l1dHits[i] = u.core.L1D().Stats.Hits.Value()
		p.l1dAcc[i] = u.core.L1D().Stats.Accesses.Value()
		ps := u.pol.Stats()
		p.entries[i] = ps.Entries.Value()
		p.offloads[i] = ps.Offloads.Value()
		p.overhead[i] = ps.OverheadCycles.Value()
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

// sampleDelta differences the current state against before.
func (s *Simulator) sampleDelta(idx int, before intervalProbe) IntervalSample {
	after := s.probe()
	out := IntervalSample{Index: idx}
	for i := range s.users {
		elapsed := after.clock[i] - before.clock[i]
		retired := after.retired[i] - before.retired[i]
		ipc := 0.0
		if elapsed > 0 {
			ipc = float64(retired) / float64(elapsed)
		}
		out.PerCoreIPC = append(out.PerCoreIPC, ipc)
		out.PerCoreInstrs = append(out.PerCoreInstrs, retired)
		out.PerCoreCycles = append(out.PerCoreCycles, elapsed)
		out.Throughput += ipc
		out.Instrs += retired
		if elapsed > out.Cycles {
			out.Cycles = elapsed
		}
		out.UserL2Hits += after.l2Hits[i] - before.l2Hits[i]
		out.UserL2Accesses += after.l2Acc[i] - before.l2Acc[i]
		out.UserL1DHits += after.l1dHits[i] - before.l1dHits[i]
		out.UserL1DAccesses += after.l1dAcc[i] - before.l1dAcc[i]
		out.OSEntries += after.entries[i] - before.entries[i]
		out.Offloads += after.offloads[i] - before.offloads[i]
		out.OverheadCycles += after.overhead[i] - before.overhead[i]
		out.UserIdleCycles += after.idle[i] - before.idle[i]
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

// intervalCov is one interval's trace-exact covariates, per user core.
// Unlike cycle counts these are pure functions of the segment stream and
// the policy decision sequence, so functional warming observes them
// exactly; they anchor the regression extrapolation in collectSampled.
type intervalCov struct {
	measured bool
	ins      []uint64 // instructions retired
	osIns    []uint64 // privileged instructions retired
	offl     []uint64 // off-load round-trips issued
}

// covSnapshot captures the absolute counters behind intervalCov.
type covSnapshot struct {
	retired, osIns, offl []uint64
}

func (s *Simulator) covSnapshot() covSnapshot {
	n := len(s.users)
	c := covSnapshot{
		retired: make([]uint64, n), osIns: make([]uint64, n), offl: make([]uint64, n),
	}
	for i, u := range s.users {
		c.retired[i] = u.retired
		c.osIns[i] = u.osInstrs
		c.offl[i] = u.pol.Stats().Offloads.Value()
	}
	return c
}

func covDelta(before, after covSnapshot, measured bool) intervalCov {
	n := len(before.retired)
	cov := intervalCov{
		measured: measured,
		ins:      make([]uint64, n), osIns: make([]uint64, n), offl: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		cov.ins[i] = after.retired[i] - before.retired[i]
		cov.osIns[i] = after.osIns[i] - before.osIns[i]
		cov.offl[i] = after.offl[i] - before.offl[i]
	}
	return cov
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
// mode and returns the raw samples of the measured intervals and every
// interval's covariates, the inputs of collectSampled. The run is fully
// deterministic: segment streams, interval boundaries and the warming
// stride are all pure functions of the Config.
func (s *Simulator) runIntervals() ([]IntervalSample, []intervalCov) {
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
	var samples []IntervalSample
	var covs []intervalCov
	total := s.cfg.MeasureInstrs
	covBefore := s.covSnapshot()
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
		measured := pos == sp.DetailedWarmIntervals
		switch {
		case pos < sp.DetailedWarmIntervals:
			s.setWarming(false)
			s.runUntil(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= target })
		case measured:
			s.setWarming(false)
			before := s.probe()
			s.runUntil(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= target })
			samples = append(samples, s.sampleDelta(idx, before))
		default:
			s.setWarming(warmFunctional)
			s.runUntil(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= target })
		}
		covAfter := s.covSnapshot()
		covs = append(covs, covDelta(covBefore, covAfter, measured))
		covBefore = covAfter
	}
	s.setWarming(false)
	return samples, covs
}

// collectSampled extrapolates the detailed samples into a full Result.
// Identity, predictor-accuracy and tuner fields come from the normal
// collector (they are rates or end-of-run state, valid across modes);
// everything measured in cycles or events is rebuilt from the detailed
// deltas, with raw event counts scaled by the inverse sampling fraction.
// Throughput uses the regression estimator over the trace-exact interval
// covariates when enough samples exist (see regress.go), falling back to
// the ratio-of-sums expansion otherwise.
func (s *Simulator) collectSampled(samples []IntervalSample, covs []intervalCov) Result {
	r := s.collect()

	var agg IntervalSample
	retiredSum := make([]uint64, len(s.users))
	elapsedSum := make([]uint64, len(s.users))
	for _, smp := range samples {
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
	r.Throughput = 0
	for i := range perCore {
		perCore[i] = stats.Ratio(retiredSum[i], elapsedSum[i])
		r.Throughput += perCore[i]
	}
	estimator := s.regressPerCore(samples, covs, perCore)
	r.Throughput = 0
	for _, ipc := range perCore {
		r.Throughput += ipc
	}
	r.PerCoreIPC = perCore

	// Actual totals over the whole measurement window; events observed
	// in the detailed fraction scale up by the inverse fraction.
	var totInstrs, maxElapsed uint64
	for _, u := range s.users {
		totInstrs += u.retired - u.retiredAtMeas
		if e := u.clock - u.measureStart; e > maxElapsed {
			maxElapsed = e
		}
	}
	scale := 1.0
	if agg.Instrs > 0 {
		scale = float64(totInstrs) / float64(agg.Instrs)
	}
	scaleUp := func(v uint64) uint64 { return uint64(float64(float64(v)*scale) + 0.5) }

	r.Instrs = totInstrs
	r.Cycles = maxElapsed
	r.UserL2HitRate = stats.Ratio(agg.UserL2Hits, agg.UserL2Accesses)
	r.UserL1DHit = stats.Ratio(agg.UserL1DHits, agg.UserL1DAccesses)
	r.OSL2HitRate = stats.Ratio(agg.OSL2Hits, agg.OSL2Accesses)
	r.OSEntries = scaleUp(agg.OSEntries)
	r.Offloads = scaleUp(agg.Offloads)
	r.OffloadRate = stats.Ratio(agg.Offloads, agg.OSEntries)
	r.OverheadCycles = scaleUp(agg.OverheadCycles)
	r.UserIdleCycles = scaleUp(agg.UserIdleCycles)
	r.OSBusyCycles = scaleUp(agg.OSBusyCycles)
	r.C2CTransfers = scaleUp(agg.C2CTransfers)
	r.Invalidations = scaleUp(agg.Invalidations)
	r.MemoryFills = scaleUp(agg.MemoryFills)
	r.MemoryWritebacks = scaleUp(agg.MemoryWritebacks)
	if slots := uint64(s.osSlotsTotal()); slots > 0 {
		if agg.Cycles > 0 {
			r.OSCoreUtilization = float64(agg.OSBusyCycles) / (float64(agg.Cycles) * float64(slots))
		}
		if agg.QueueDelayCount > 0 {
			r.MeanQueueDelay = agg.QueueDelaySum / float64(agg.QueueDelayCount)
		} else {
			r.MeanQueueDelay = 0
		}
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

// regressPerCore replaces perCore with regression-extrapolated IPCs when
// possible and reports the estimator actually used. For each core it
// fits the sampled intervals' cycle counts against their trace-exact
// covariates and evaluates the fit at the covariate totals of the whole
// measurement window, which every interval — warming included — has
// observed exactly.
func (s *Simulator) regressPerCore(samples []IntervalSample, covs []intervalCov, perCore []float64) string {
	var measured []intervalCov
	xTot := make([][]float64, len(s.users))
	for i := range xTot {
		xTot[i] = make([]float64, 4)
	}
	for _, cov := range covs {
		for c := range xTot {
			xTot[c][0]++
			xTot[c][1] += float64(cov.ins[c])
			xTot[c][2] += float64(cov.osIns[c])
			xTot[c][3] += float64(cov.offl[c])
		}
		if cov.measured {
			measured = append(measured, cov)
		}
	}
	if len(measured) != len(samples) || len(samples) < olsMinSamples {
		return "ratio"
	}

	ipc := make([]float64, len(s.users))
	for c, u := range s.users {
		xs := make([][]float64, len(measured))
		ys := make([]float64, len(measured))
		for k, cov := range measured {
			xs[k] = []float64{1, float64(cov.ins[c]), float64(cov.osIns[c]), float64(cov.offl[c])}
			ys[k] = float64(samples[k].PerCoreCycles[c])
		}
		insTot := float64(u.retired - u.retiredAtMeas)
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
