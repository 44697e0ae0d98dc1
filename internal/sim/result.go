package sim

import (
	"fmt"
	"strings"

	"offloadsim/internal/core"
	"offloadsim/internal/policy"
	"offloadsim/internal/stats"
	"offloadsim/internal/syscalls"
)

// Result is the measured outcome of one simulation run.
type Result struct {
	Workload  string
	Policy    string
	Threshold int // final threshold (after any dynamic tuning)
	OneWay    int
	UserCores int

	// Throughput is aggregate user-core throughput: the sum over user
	// cores of workload instructions retired per elapsed cycle. For one
	// single-threaded core this is IPC (§II "For single threaded
	// applications, throughput is equivalent to IPC").
	Throughput float64
	// PerCoreIPC lists each user core's instructions-per-cycle.
	PerCoreIPC []float64

	// Instrs and Cycles aggregate across user cores (cycles = max
	// elapsed among them).
	Instrs uint64
	Cycles uint64

	// Cache behaviour.
	UserL2HitRate float64
	OSL2HitRate   float64
	UserL1DHit    float64

	// Off-loading activity.
	OSEntries      uint64
	Offloads       uint64
	OffloadRate    float64
	OverheadCycles uint64

	// OS core service metrics (§V-C).
	OSCoreUtilization float64
	MeanQueueDelay    float64
	MaxQueueDelay     float64

	// Coherence traffic.
	C2CTransfers     uint64
	Invalidations    uint64
	MemoryFills      uint64
	MemoryWritebacks uint64

	// Energy-model inputs: cycles the user cores spent idle-eligible
	// (waiting on migrations), the OS core's busy cycles, and whether an
	// OS core existed at all.
	UserIdleCycles uint64
	OSBusyCycles   uint64
	HasOSCore      bool

	// Predictor quality (predictor-based policies only). Exact/Within5
	// and BinaryAccuracy score system calls only, following §IV's
	// convention of omitting the SPARC window-trap population from
	// statistics it would skew; the AllEntry variants include every
	// privileged entry (traps included).
	PredictorExact         float64
	PredictorWithin5       float64
	BinaryAccuracy         float64
	AllEntryExact          float64
	AllEntryBinaryAccuracy float64

	// PrivFraction is the workload's generated privileged share.
	PrivFraction float64

	// TunerChanges counts adopted-threshold changes (dynamic N runs).
	TunerChanges int

	// TunerHistory is core 0's epoch-by-epoch (threshold, hit-rate)
	// trail when dynamic N is enabled; nil otherwise.
	TunerHistory []core.Sample

	// Sampling records how an interval-sampled run was extrapolated;
	// nil for fully detailed runs.
	Sampling *SamplingProvenance `json:",omitempty"`

	// Parallel records that detailed execution ran on the
	// quantum-synchronized parallel engine; nil for serial runs.
	Parallel *ParallelProvenance `json:",omitempty"`

	// OSCores records the per-core and per-class behaviour of a run
	// with an enabled Config.OSCores block; nil for the default single
	// OS core and for baseline runs.
	OSCores *OSCoresProvenance `json:",omitempty"`
}

// OSCoresProvenance is the Result block of a multi-OS-core run
// (internal/oscore, docs/OSCORES.md).
type OSCoresProvenance struct {
	// K is the OS-core count; Async whether fire-and-forget dispatch
	// was enabled.
	K     int
	Async bool
	// PerCore lists each OS core's service metrics, index-aligned with
	// the cluster.
	PerCore []OSCoreStat
	// PerClass lists every syscall class in catalog order with its
	// designated core and routing statistics (the source of the offsimd
	// per-class queue-depth gauge).
	PerClass []OSClassStat
	// Async accounting: dispatches issued, returns reconciled, cycles
	// issuing cores stalled on reconciliation, and descriptors still
	// outstanding at the end of measurement.
	AsyncDispatched  uint64
	AsyncReconciled  uint64
	AsyncStallCycles uint64
	AsyncOutstanding uint64
	// Rebalances counts requests diverted from their designated queue.
	Rebalances uint64
}

// OSCoreStat is one OS core's service metrics.
type OSCoreStat struct {
	// Speed is the core's configured speed factor.
	Speed float64
	// Requests and BusyCycles count work booked on this core's queue.
	Requests   uint64
	BusyCycles uint64
	// Utilization is busy cycles over the core's context capacity
	// across the measurement window.
	Utilization float64
	// MeanQueueDelay is the average reservation wait on this core.
	MeanQueueDelay float64
}

// OSClassStat is one syscall class's routing statistics.
type OSClassStat struct {
	// Class is the syscall category name; Core its designated OS core.
	Class string
	Core  int
	// Requests counts invocations of this class routed to the cluster;
	// MeanQueueDepth the average busy-context count they observed at
	// arrival.
	Requests       uint64
	MeanQueueDepth float64
}

// ParallelProvenance marks a Result as produced by the parallel
// detailed engine (docs/PARALLEL.md). Workers is deliberately absent:
// it cannot influence results, and recording it would break the
// byte-identical-at-any-Workers contract.
type ParallelProvenance struct {
	// Quantum is the synchronization interval in simulated cycles.
	Quantum uint64
	// Quanta is the number of barriers the run executed.
	Quanta uint64
}

// SamplingProvenance marks a Result as extrapolated from interval
// sampling and carries its headline error estimate.
type SamplingProvenance struct {
	// Intervals is the number of detailed intervals measured (across
	// all merged replicas).
	Intervals int
	// TotalIntervals is the number of intervals in the measurement
	// window (across all merged replicas).
	TotalIntervals int
	// Replicas is the number of independent replicas merged.
	Replicas int
	// SampledFraction is the share of measured instructions executed in
	// full detail.
	SampledFraction float64
	// Estimator names the extrapolation used for throughput:
	// "regression" (cycle counts fitted against trace-exact interval
	// covariates) or "ratio" (plain ratio-of-sums expansion).
	Estimator string
	// ThroughputRelErr is the 95% confidence half-width of the
	// throughput estimate, relative to the estimate: from the spread of
	// the detailed intervals, or of the replicas once several merged.
	ThroughputRelErr float64
}

// collect gathers the result after measurement completes: the counts of
// the window between measureStart and a final probe, and end-of-run state.
func (s *Simulator) collect() Result {
	w := sampleDelta(0, s.measureStart, s.probe())
	r := Result{
		Workload:   s.workloadName(),
		Policy:     s.cfg.Policy.String(),
		Threshold:  s.cfg.Threshold,
		OneWay:     s.cfg.Migration.OneWay,
		UserCores:  s.cfg.UserCores,
		Throughput: w.Throughput,
		PerCoreIPC: w.PerCoreIPC,
		Instrs:     w.Instrs,
		Cycles:     w.Cycles,
	}
	r.setCounts(w, 1)

	for _, u := range s.users {
		if eng := policy.Engine(u.pol); eng != nil {
			// Reported accuracy covers system calls only: §IV omits the
			// SPARC window-trap invocations from statistics they would
			// skew. Averaged across cores (same workload class).
			acc := policy.SyscallAccuracy(u.pol)
			r.PredictorExact += acc.ExactRate() / float64(len(s.users))
			r.PredictorWithin5 += acc.Within5Rate() / float64(len(s.users))
			if ba, ok := policy.SyscallBinaryAccuracy(u.pol); ok {
				r.BinaryAccuracy += ba / float64(len(s.users))
			}
			r.AllEntryExact += eng.Predictor().Accuracy().ExactRate() / float64(len(s.users))
			r.AllEntryBinaryAccuracy += eng.BinaryAccuracy() / float64(len(s.users))
			r.Threshold = eng.Threshold()
		}
		if u.tun != nil {
			r.TunerChanges += u.tun.Changes()
			if r.TunerHistory == nil {
				r.TunerHistory = append(r.TunerHistory, u.tun.History()...)
			}
		}
		r.PrivFraction = u.gen.SourceStats().PrivFraction()
	}

	if s.osc != nil {
		r.HasOSCore = true
		r.OSCoreUtilization = s.osc.Utilization(r.Cycles)
		if !s.cfg.OSCores.Enabled {
			// The single OS core reports its queue's running mean:
			// Sum is mean x n, so Sum/N can land one ulp off it.
			r.MeanQueueDelay = s.osc.Queue(0).QueueDelay.Mean()
		}
		_, _, r.MaxQueueDelay = s.osc.QueueDelay()
		if s.cfg.OSCores.Enabled {
			r.OSCores = s.oscoresProvenance(r.Cycles)
		}
	}
	if s.par != nil {
		r.Parallel = &ParallelProvenance{Quantum: s.par.quantum, Quanta: s.par.quanta}
	}
	return r
}

// setCounts fills r's hit rates, mean queue delay and event counts from
// window w, scaling each count by scale: 1 (which returns any count
// below 2^52 unchanged) for the measurement window, its instructions
// over w's when w sums the measured intervals.
func (r *Result) setCounts(w IntervalSample, scale float64) {
	count := func(v uint64) uint64 { return uint64(float64(float64(v)*scale) + 0.5) }
	r.UserL2HitRate = stats.Ratio(w.UserL2Hits, w.UserL2Accesses)
	r.UserL1DHit = stats.Ratio(w.UserL1DHits, w.UserL1DAccesses)
	r.OSL2HitRate = stats.Ratio(w.OSL2Hits, w.OSL2Accesses)
	r.OSEntries = count(w.OSEntries)
	r.Offloads = count(w.Offloads)
	r.OffloadRate = stats.Ratio(w.Offloads, w.OSEntries)
	r.OverheadCycles = count(w.OverheadCycles)
	r.UserIdleCycles = count(w.UserIdleCycles)
	r.OSBusyCycles = count(w.OSBusyCycles)
	r.MeanQueueDelay = 0
	if w.QueueDelayCount > 0 {
		r.MeanQueueDelay = w.QueueDelaySum / float64(w.QueueDelayCount)
	}
	r.C2CTransfers = count(w.C2CTransfers)
	r.Invalidations = count(w.Invalidations)
	r.MemoryFills = count(w.MemoryFills)
	r.MemoryWritebacks = count(w.MemoryWritebacks)
}

// workloadName names the profile every user core runs, or "mixed".
func (s *Simulator) workloadName() string {
	name := s.cfg.profileFor(0).Name
	for i := 1; i < s.cfg.UserCores; i++ {
		if s.cfg.profileFor(i).Name != name {
			return "mixed"
		}
	}
	return name
}

// oscoresProvenance shapes the cluster runtime's counters into the
// Result block.
func (s *Simulator) oscoresProvenance(horizon uint64) *OSCoresProvenance {
	p := &OSCoresProvenance{
		K:          s.osc.K(),
		Async:      s.cfg.OSCores.Async,
		Rebalances: s.osc.Rebalances(),
	}
	p.AsyncDispatched, p.AsyncReconciled, p.AsyncStallCycles = s.osc.AsyncStats()
	p.AsyncOutstanding = s.osc.OutstandingAsync()
	for q := 0; q < s.osc.K(); q++ {
		queue := s.osc.Queue(q)
		st := OSCoreStat{
			Speed:      s.osc.Speed(q),
			Requests:   queue.Requests.Value(),
			BusyCycles: queue.BusyCycles.Value(),
		}
		if horizon > 0 {
			st.Utilization = float64(st.BusyCycles) / (float64(horizon) * float64(queue.Slots()))
			if st.Utilization > 1 {
				st.Utilization = 1
			}
		}
		st.MeanQueueDelay = queue.QueueDelay.Mean()
		p.PerCore = append(p.PerCore, st)
	}
	for cat := 0; cat < syscalls.NumCategories; cat++ {
		req, depth := s.osc.ClassStats(syscalls.Category(cat))
		p.PerClass = append(p.PerClass, OSClassStat{
			Class:          syscalls.Category(cat).String(),
			Core:           s.osc.Designated(syscalls.Category(cat)),
			Requests:       req,
			MeanQueueDepth: depth,
		})
	}
	return p
}

// String renders a one-line summary.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s N=%d lat=%d cores=%d: tput=%.4f offl=%s osUtil=%s",
		r.Workload, r.Policy, r.Threshold, r.OneWay, r.UserCores,
		r.Throughput, stats.Pct(r.OffloadRate), stats.Pct(r.OSCoreUtilization))
	return b.String()
}
