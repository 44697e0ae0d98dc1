package sim

import (
	"fmt"

	"offloadsim/internal/core"
	"offloadsim/internal/policy"
	"offloadsim/internal/stats"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/trace"
)

// This file is the simulator side of the telemetry layer
// (internal/telemetry, docs/TELEMETRY.md). Telemetry attaches to a built
// Simulator rather than riding in Config: the Config is the determinism
// and cache-key contract (sim.CanonicalKey), and observing a run must
// not change its identity. Instrumentation is read-only — every emission
// site samples engine state that the simulation already computed, so
// results are byte-identical with tracing on or off, and the disabled
// path costs one nil check per OS segment (bounded by
// `make telemetry-overhead`).

// AttachTelemetry arms tracing for the next Run. opts selects the event
// trace and/or the interval time-series; the returned Tracer yields its
// Capture after Run completes. Trace capture requires cycle-accurate
// execution, so sampled mode (Config.Sampling) is rejected; the detailed
// and parallel engines are both supported — the parallel engine emits
// barrier-resolved off-load events in the same (time, node, seq)
// discipline as its result reconciliation, so trace bytes stay identical
// at any Workers setting. Attach before Run; attaching twice replaces
// the previous tracer.
func (s *Simulator) AttachTelemetry(opts telemetry.Options) (*telemetry.Tracer, error) {
	if s.cfg.Sampling.Enabled {
		return nil, fmt.Errorf("sim: telemetry requires detailed or parallel mode, not sampled " +
			"(functional warming has no cycle-accurate timeline to trace)")
	}
	trc, err := telemetry.New(opts, len(s.users), s.telemetryMeta())
	if err != nil {
		return nil, err
	}
	s.trc = trc
	for i, u := range s.users {
		u.idx = i
		u.trc = trc
	}
	return trc, nil
}

// telemetryMeta describes this simulator's run for trace headers.
func (s *Simulator) telemetryMeta() telemetry.Meta {
	meta := telemetry.Meta{
		Workload:  s.workloadName(),
		Policy:    s.cfg.Policy.String(),
		Threshold: s.cfg.Threshold,
		UserCores: s.cfg.UserCores,
		OSCore:    s.osc != nil,
		Seed:      s.cfg.Seed,
	}
	// A Baseline config keeps an OS-core block that builds no cluster
	// (and that CanonicalKey drops), so only a built cluster is reported.
	if s.osc != nil && s.cfg.OSCores.Enabled {
		meta.OSCores = s.cfg.OSCores.K
	}
	return meta
}

// emitDecide records the OS entry and the policy verdict for it. entry
// is the core clock at the privileged-mode transition, before decision
// overhead is charged.
func (u *userCtx) emitDecide(entry uint64, seg *trace.Segment, d policy.Decision) {
	u.trc.Emit(u.idx, telemetry.Event{
		Time: entry, Kind: telemetry.KindOSEntry,
		Sys: int32(seg.Sys), Instrs: int32(seg.Instrs),
	})
	u.trc.Emit(u.idx, telemetry.Event{
		Time: entry, Kind: telemetry.KindPredict,
		Offload: d.Offload, Global: d.Source == core.GlobalPrediction,
		Sys: int32(seg.Sys), Instrs: int32(seg.Instrs),
		Pred: int32(d.Predicted), Cycles: uint64(d.Overhead),
	})
}

// emitOutcome scores the decision against the retired invocation.
func (u *userCtx) emitOutcome(seg *trace.Segment, d policy.Decision) {
	u.trc.Emit(u.idx, telemetry.Event{
		Time: u.clock, Kind: telemetry.KindOutcome,
		Offload: d.Offload, Sys: int32(seg.Sys),
		Instrs: int32(seg.Instrs), Pred: int32(d.Predicted),
		Value: int64(seg.Instrs) - int64(d.Predicted),
	})
}

// emitLocalOS records an invocation completing on its own user core.
func (u *userCtx) emitLocalOS(seg *trace.Segment, cycles uint64) {
	u.trc.Emit(u.idx, telemetry.Event{
		Time: u.clock, Kind: telemetry.KindOSExit,
		Sys: int32(seg.Sys), Cycles: cycles,
	})
}

// runMeasureWithSeries runs the measurement phase cut into
// IntervalInstrs sub-targets, sampling the interval time-series at each
// boundary. The partition cannot perturb the run: runUntil (serial and
// parallel alike) picks which core steps independently of the done
// predicate, so the step sequence — and therefore every result — is
// identical to the single-target measurement loop in Run.
func (s *Simulator) runMeasureWithSeries() {
	cadence := s.trc.IntervalInstrs()
	total := s.cfg.MeasureInstrs
	// Exit exactly when the single-target loop would: every core at
	// total. (The interval anchor below is the *furthest* core — using
	// it for termination too would end the run while slower cores were
	// still short.)
	prev := s.measureStart
	for !s.allDone(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= total }) {
		target := s.maxMeasured() + cadence
		if target > total {
			target = total
		}
		s.runUntil(func(u *userCtx) bool { return u.retired-u.retiredAtMeas >= target })
		next := s.probe()
		s.trc.RecordInterval(s.intervalPoint(sampleDelta(0, prev, next), target))
		prev = next
	}
}

// intervalPoint shapes one interval's raw counter deltas into the
// exported time-series sample.
func (s *Simulator) intervalPoint(smp IntervalSample, endInstrs uint64) telemetry.IntervalPoint {
	p := telemetry.IntervalPoint{
		EndInstrs:      endInstrs,
		Instrs:         smp.Instrs,
		Cycles:         smp.Cycles,
		Throughput:     smp.Throughput,
		UserL2HitRate:  stats.Ratio(smp.UserL2Hits, smp.UserL2Accesses),
		UserL1DHitRate: stats.Ratio(smp.UserL1DHits, smp.UserL1DAccesses),
		OSL2HitRate:    stats.Ratio(smp.OSL2Hits, smp.OSL2Accesses),
		OSEntries:      smp.OSEntries,
		Offloads:       smp.Offloads,
		LiveN:          s.users[0].pol.Threshold(),
	}
	if slots := s.osSlotsTotal(); slots > 0 && smp.Cycles > 0 {
		p.OSCoreUtilization = float64(smp.OSBusyCycles) /
			(float64(smp.Cycles) * float64(slots))
		p.QueueDepth = smp.QueueDelaySum / float64(smp.Cycles)
	}
	if smp.QueueDelayCount > 0 {
		p.MeanQueueDelay = smp.QueueDelaySum / float64(smp.QueueDelayCount)
	}
	return p
}
