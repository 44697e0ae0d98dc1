package sim

import (
	"offloadsim/internal/oscore"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/trace"
)

// This file is the engine side of the OS-core model (Config.OSCores,
// internal/oscore, docs/OSCORES.md). Every off-load-capable simulator
// builds an oscore.Cluster: K=1 without an OSCores block, which is the
// paper's single dedicated OS core. Both engines book an off-load
// through one helper, bookOffload: the serial engine at decide time
// (clusterOffload, which also routes and prices it), the parallel
// engine at the quantum barrier on queue 0 (resolveOffloads); Validate
// keeps the parallel engine to one OS core.
//
// Pricing. A synchronous off-load costs the issuing core the round trip
// oneWay + wait + exec + oneWay, with exec scaled by the serving core's
// speed factor (1 unless Asymmetry says otherwise). An asynchronous
// (fire-and-forget) off-load costs the issuing core only the outbound
// oneWay: the OS-side work overlaps user execution, following
// Colagrande & Benini's observation that offload latency hides when the
// requester keeps running. The overlap is not free — the return
// descriptor must still be reconciled at the core's next OS boundary
// (or earlier, if the per-core return slots fill), and any cycles the
// core stalls waiting for an unlanded return are charged there.

// clusterOffload executes one off-loaded invocation against the OS-core
// cluster.
func (s *Simulator) clusterOffload(u *userCtx, seg *trace.Segment) {
	async := s.cfg.OSCores.Async && syscalls.SideEffectOnly(seg.Sys)
	if async {
		// Fire-and-forget needs a free return slot; with all slots
		// occupied the core stalls until the earliest outstanding
		// return lands (double buffering at the default budget of 2).
		s.awaitAsyncSlot(u)
	} else {
		// A synchronous off-load is an OS boundary: every outstanding
		// async return reconciles before the round trip begins.
		s.drainAsync(u)
	}

	oneWay := uint64(s.cfg.Migration.OneWay)
	arrival := u.clock + oneWay
	q, _ := s.osc.Route(syscalls.CategoryOf(seg.Sys), arrival)
	start, wait, scaled := s.bookOffload(u, seg, q, arrival, async)
	if async {
		complete := start + scaled + oneWay
		s.osc.PushAsync(u.idx, complete, q)
		u.core.Idle(oneWay)
		u.clock += oneWay
	} else {
		total := oneWay + wait + scaled + oneWay
		u.core.Idle(total)
		u.clock += total
	}
}

// bookOffload runs user core u's off-loaded segment on OS core q, books
// q's queue from arrival and emits the off-load's telemetry. It returns
// the reservation start, the queue wait and the execution cycles scaled
// by q's speed factor; the caller charges the issuing core.
func (s *Simulator) bookOffload(u *userCtx, seg *trace.Segment, q int, arrival uint64, async bool) (start, wait, scaled uint64) {
	// Telemetry samples are read-only and taken around — never inside —
	// the model's own calls, so the simulated outcome is identical with
	// tracing on or off.
	var backlog int
	var missBase uint64
	if u.trc != nil {
		backlog = s.osc.Backlog(q, arrival)
		missBase = s.clusterMisses(q)
	}
	scaled = oscore.Scale(s.osCores[q].RunSegment(seg), s.osc.Speed(q))
	start, wait = s.osc.Reserve(q, syscalls.CategoryOf(seg.Sys), arrival, scaled)
	if u.trc != nil {
		s.emitClusterOffload(u, seg, arrival, start, wait, scaled, q, backlog,
			s.clusterMisses(q)-missBase, async)
	}
	return start, wait, scaled
}

// awaitAsyncSlot frees a return slot on user core u, reconciling the
// earliest-completing outstanding off-loads until one is available.
func (s *Simulator) awaitAsyncSlot(u *userCtx) {
	for !s.osc.SlotFree(u.idx) {
		complete, q, ok := s.osc.PopEarliest(u.idx)
		if !ok {
			return
		}
		s.reconcileAsync(u, complete, q)
	}
}

// drainAsync reconciles every outstanding fire-and-forget return of user
// core u in issue order — the synchronous OS-boundary drain.
func (s *Simulator) drainAsync(u *userCtx) {
	if s.osc.PendingCount(u.idx) == 0 {
		return
	}
	for _, ret := range s.osc.TakePending(u.idx) {
		s.reconcileAsync(u, ret.Complete, ret.Core)
	}
}

// reconcileAsync lands one return descriptor on its issuing core,
// stalling the core if the descriptor has not arrived yet. The stall is
// idle-eligible, like any migration wait.
func (s *Simulator) reconcileAsync(u *userCtx, complete uint64, q int) {
	var stall uint64
	if complete > u.clock {
		stall = complete - u.clock
		u.core.Idle(stall)
		u.clock = complete
	}
	s.osc.ObserveReconcile(stall)
	if u.trc != nil {
		u.trc.Emit(u.idx, telemetry.Event{
			Time: u.clock, Kind: telemetry.KindAsyncReturn,
			Sys: -1, Cycles: stall, Value: int64(q),
		})
	}
}

// emitClusterOffload records user core u's off-load: dispatch, routed
// enqueue (wait and observed backlog), execution on the serving core
// with its cache warm-up cost, and — synchronous only — the return to
// the issuing core. Async returns are emitted by reconcileAsync when
// they actually land. Runs without an OSCores block keep the
// single-OS-core event names (offload_queue, offload_execute); cluster
// runs name the serving core (oscore_enqueue, oscore_execute).
func (s *Simulator) emitClusterOffload(u *userCtx, seg *trace.Segment,
	arrival, start, wait, scaled uint64, q, backlog int, missDelta uint64, async bool) {
	enqueue, execute := telemetry.KindOffloadQueue, telemetry.KindOffloadExecute
	if s.cfg.OSCores.Enabled {
		enqueue, execute = telemetry.KindOSCoreEnqueue, telemetry.KindOSCoreExecute
	}
	oneWay := uint64(s.cfg.Migration.OneWay)
	dispatch := arrival - oneWay
	sys := int32(seg.Sys)
	u.trc.Emit(u.idx, telemetry.Event{
		Time: dispatch, Kind: telemetry.KindOffloadDispatch, Sys: sys, Cycles: oneWay,
	})
	u.trc.Emit(u.idx, telemetry.Event{
		Time: arrival, Kind: enqueue, Sys: sys,
		Cycles: wait, Value: int64(backlog),
	})
	u.trc.Emit(u.idx, telemetry.Event{
		Time: start, Kind: execute, Sys: sys,
		Cycles: scaled, Value: int64(q),
	})
	u.trc.Emit(u.idx, telemetry.Event{
		Time: start, Kind: telemetry.KindCacheWarm, Sys: sys, Value: int64(missDelta),
	})
	if !async {
		total := oneWay + wait + scaled + oneWay
		u.trc.Emit(u.idx, telemetry.Event{
			Time: dispatch + total, Kind: telemetry.KindOffloadReturn, Sys: sys, Cycles: total,
		})
	}
}

// clusterMisses is OS core q's cumulative private-cache miss count (L1
// I+D plus its L2): the counter emitClusterOffload differences into
// cache-warm-up events.
func (s *Simulator) clusterMisses(q int) uint64 {
	return s.osCores[q].MissCount() + s.sys.L2(s.osNode+q).Stats.Misses.Value()
}

// osSlotsTotal is the hardware-context capacity of the OS side:
// contexts x K, or 0 without an OS core.
func (s *Simulator) osSlotsTotal() int {
	if s.osc == nil {
		return 0
	}
	return s.osc.Contexts() * s.osc.K()
}
