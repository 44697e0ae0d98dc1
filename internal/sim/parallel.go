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

// parRuntime is the parallel engine's state, built by New when
// Config.Parallel is enabled. Per-core slices are indexed by the user
// core's ID.
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

// newParRuntime builds the parallel engine's state and routes each user
// core's memory traffic through its own epoch port for the whole run.
func (s *Simulator) newParRuntime() *parRuntime {
	pr := &parRuntime{
		workers:  parallel.Resolve(s.cfg.Parallel.Workers, runtime.GOMAXPROCS(0), len(s.users)),
		quantum:  s.cfg.Parallel.Quantum,
		freeAt:   make([]uint64, len(s.users)),
		offloads: make([][]offloadEvent, len(s.users)),
	}
	for _, u := range s.users {
		port := s.sys.NewEpochPort(u.core.Node())
		u.core.SetPort(port)
		pr.ports = append(pr.ports, port)
	}
	return pr
}

// runQuantum advances every user core to the barrier horizon
// min(clocks)+Quantum on the worker pool, each running step, then
// reconciles serially.
func (s *Simulator) runQuantum() {
	pr := s.par
	t := s.minClock().clock + pr.quantum

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
			s.step(u)
		}
	})

	s.sys.ReconcileEpoch(pr.ports)
	s.resolveOffloads(pr)
	pr.quanta++
}

// deferOffload is clusterOffload under quantum isolation: the off-load
// is priced from the quantum-start snapshot (the core's private view of
// the OS queue and the calibrated OS CPI), charged to the core as an
// estimate, and logged for the barrier, where resolveOffloads books it.
func (s *Simulator) deferOffload(u *userCtx, seg *trace.Segment) {
	pr, i := s.par, u.core.ID()
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
}

// resolveOffloads books the quantum's deferred off-loads serially
// through bookOffload, in (arrival, core, sequence) order — the order
// the serial engine's reservation queue would have seen them — so
// telemetry, emitted as each one books, reaches every core's ring in
// issue order at any Workers setting. Each issuing core's estimated
// round trip is then replaced with the resolved cost. Validate rejects
// Parallel with an OSCores block, so the cluster has one full-speed
// synchronous queue and every off-load books queue 0.
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
		u := s.users[ev.node]
		_, wait, exec := s.bookOffload(u, &ev.seg, 0, ev.arrival, false)
		total := oneWay + wait + exec + oneWay
		u.core.AdjustIdle(int64(total) - int64(ev.est))
		// Modular arithmetic: a resolution shorter than the estimate
		// moves the clock back by the difference.
		u.clock += total - ev.est
	}
}
