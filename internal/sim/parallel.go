// Quantum-synchronized parallel detailed execution (docs/PARALLEL.md).
//
// The serial engine steps the globally youngest core one segment at a
// time. The parallel engine instead advances every user core through
// one quantum of simulated cycles concurrently: each core runs against
// its private L1/L2 state plus a frozen snapshot of the shared
// directory (coherence.EpochPort), and every cross-core interaction —
// directory transactions, cache-to-cache traffic, off-loads to the OS
// core — is buffered into per-core event logs. At the quantum barrier a
// serial reconciliation applies the merged logs in a fixed order
// (timestamp, then core id, then per-core sequence), so the result is a
// pure function of the configuration: byte-identical run-to-run at any
// GOMAXPROCS and any Workers setting, though not bit-identical to the
// serial engine (the relaxed synchronization is an accuracy-gated
// modelling approximation, like sampling).
package sim

import (
	"runtime"
	"slices"

	"offloadsim/internal/coherence"
	"offloadsim/internal/parallel"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
)

// defaultOSCPIEstimate prices an off-loaded segment's OS-core execution
// before CPI calibration has seen enough detailed instructions. Only
// the intra-quantum interleaving depends on it: the barrier true-up
// replaces every estimate with the resolved cost.
const defaultOSCPIEstimate = 2.0

// offloadEvent is one off-load deferred to the quantum barrier. The
// segment is copied by value, freezing its private rng stream position,
// so the OS core replays at the barrier exactly the references the
// serial engine would have replayed at decide time.
type offloadEvent struct {
	seg     trace.Segment
	arrival uint64 // user clock + one-way transfer at issue
	est     uint64 // round-trip estimate charged during the quantum
	node    int32
	seq     uint32
}

// parRuntime is the Simulator's lazily built parallel-engine state.
type parRuntime struct {
	workers int
	quantum uint64
	ports   []*coherence.EpochPort
	// freeAt is each core's private view of the OS core's earliest free
	// context: seeded from the real reservation queue at the quantum
	// start and advanced by the core's own estimated off-loads, so a
	// core that off-loads repeatedly inside one quantum models its own
	// queuing. Cross-core contention resolves at the barrier.
	freeAt   []uint64
	offloads [][]offloadEvent
	merged   []offloadEvent
	osCPI    float64
	quanta   uint64
}

func (s *Simulator) parRuntimeInit() *parRuntime {
	pr := &parRuntime{
		workers:  parallel.Resolve(s.cfg.Parallel.Workers, runtime.GOMAXPROCS(0), len(s.users)),
		quantum:  s.cfg.Parallel.Quantum,
		freeAt:   make([]uint64, len(s.users)),
		offloads: make([][]offloadEvent, len(s.users)),
	}
	for _, u := range s.users {
		pr.ports = append(pr.ports, s.sys.NewEpochPort(u.core.Node()))
	}
	return pr
}

// runUntilParallel is runUntil's quantum-barrier counterpart: the done
// predicate is evaluated only at barriers, where the shared state is
// consistent, and — like the serial loop — cores that satisfy it early
// keep executing until every core does.
func (s *Simulator) runUntilParallel(done func(*userCtx) bool) {
	if s.par == nil {
		s.par = s.parRuntimeInit()
		for i, u := range s.users {
			u.core.SetPort(s.par.ports[i])
		}
	}
	for {
		allDone := true
		for _, u := range s.users {
			if !done(u) {
				allDone = false
				break
			}
		}
		if allDone {
			return
		}
		s.runQuantum(s.par)
	}
}

// runQuantum advances every user core to the barrier horizon
// min(clocks)+Quantum on the worker pool, then reconciles serially.
func (s *Simulator) runQuantum(pr *parRuntime) {
	t := s.users[0].clock
	for _, u := range s.users[1:] {
		if u.clock < t {
			t = u.clock
		}
	}
	t += pr.quantum

	if s.osc != nil {
		free := s.osc.Queue(0).FreeAt()
		for i := range pr.freeAt {
			pr.freeAt[i] = free
		}
		_, osCPI := s.osCores[0].CalibratedCPI()
		if osCPI <= 0 {
			osCPI = defaultOSCPIEstimate
		}
		pr.osCPI = osCPI
	}

	parallel.Run(pr.workers, len(s.users), func(i int) {
		u := s.users[i]
		for u.clock < t {
			s.stepParallel(u, pr, i)
		}
	})

	s.sys.ReconcileEpoch(pr.ports)
	s.resolveOffloads(pr)
	pr.quanta++
}

// stepParallel is step() under quantum isolation: identical control
// flow, with two substitutions. Memory traffic flows through the core's
// EpochPort (installed via SetPort), and an off-load is priced from the
// epoch-start queue snapshot and deferred to the barrier instead of
// executing on the OS core immediately.
func (s *Simulator) stepParallel(u *userCtx, pr *parRuntime, i int) {
	u.seg = u.gen.Next()
	seg := &u.seg
	pr.ports[i].SetTime(u.clock)
	if !seg.IsOS() {
		u.clock += u.core.RunSegment(seg)
		u.advance(seg)
		return
	}

	entry := u.clock
	d := u.pol.Decide(seg)
	if u.trc != nil {
		// Mid-quantum events carry the engine's within-quantum clock —
		// the same estimated timeline the engine itself runs on, so the
		// emission is deterministic at any Workers setting.
		u.emitDecide(entry, seg, d)
	}
	if d.Overhead > 0 {
		u.core.Stall(uint64(d.Overhead))
		u.clock += uint64(d.Overhead)
	}

	if d.Offload && !s.cfg.InstrumentOnly && s.osc != nil {
		oneWay := uint64(s.cfg.Migration.OneWay)
		arrival := u.clock + oneWay
		execEst := uint64(float64(float64(seg.Instrs)*pr.osCPI) + 0.5)
		if execEst < uint64(seg.Instrs) {
			execEst = uint64(seg.Instrs)
		}
		wait := uint64(0)
		if pr.freeAt[i] > arrival {
			wait = pr.freeAt[i] - arrival
		}
		pr.freeAt[i] = arrival + wait + execEst
		est := oneWay + wait + execEst + oneWay
		pr.offloads[i] = append(pr.offloads[i], offloadEvent{
			seg:     *seg,
			arrival: arrival,
			est:     est,
			node:    int32(i),
			seq:     uint32(len(pr.offloads[i])),
		})
		u.core.Idle(est)
		u.clock += est
	} else {
		cycles := u.core.RunSegment(seg)
		u.clock += cycles
		if u.trc != nil {
			u.emitLocalOS(seg, cycles)
		}
	}
	u.pol.Observe(seg, d, seg.Instrs)
	if u.trc != nil {
		u.emitOutcome(seg, d)
	}
	u.advance(seg)
}

// resolveOffloads executes the quantum's deferred off-loads serially on
// the real OS core in (arrival, core, sequence) order — the order the
// serial engine's reservation queue would have seen them — and replaces
// each issuing core's estimated round trip with the resolved cost.
// Validate rejects Parallel with an OSCores block, so the cluster has
// one full-speed synchronous queue and every off-load books queue 0.
func (s *Simulator) resolveOffloads(pr *parRuntime) {
	pr.merged = pr.merged[:0]
	for i := range pr.offloads {
		pr.merged = append(pr.merged, pr.offloads[i]...)
		pr.offloads[i] = pr.offloads[i][:0]
	}
	if len(pr.merged) == 0 {
		return
	}
	slices.SortFunc(pr.merged, func(a, b offloadEvent) int {
		if a.arrival != b.arrival {
			if a.arrival < b.arrival {
				return -1
			}
			return 1
		}
		if a.node != b.node {
			return int(a.node) - int(b.node)
		}
		return int(a.seq) - int(b.seq)
	})
	oneWay := uint64(s.cfg.Migration.OneWay)
	for i := range pr.merged {
		ev := &pr.merged[i]
		// Barrier-resolved telemetry: samples bracket the model's own
		// calls, emitted serially in the same (arrival, node, seq) order
		// as the resolution itself — so every core's ring receives its
		// off-load events in issue order at any Workers setting.
		var backlog int
		var missBase uint64
		if s.trc != nil {
			backlog = s.osc.Backlog(0, ev.arrival)
			missBase = s.clusterMisses(0)
		}
		execCycles := s.osCores[0].RunSegment(&ev.seg)
		start, wait := s.osc.Reserve(0, syscalls.CategoryOf(ev.seg.Sys), ev.arrival, execCycles)
		total := oneWay + wait + execCycles + oneWay
		u := s.users[ev.node]
		u.core.AdjustIdle(int64(total) - int64(ev.est))
		if total >= ev.est {
			u.clock += total - ev.est
		} else {
			u.clock -= ev.est - total
		}
		if s.trc != nil {
			s.emitClusterOffload(int(ev.node), &ev.seg, ev.arrival-oneWay, ev.arrival,
				start, wait, execCycles, 0, backlog, s.clusterMisses(0)-missBase, false)
		}
	}
}
