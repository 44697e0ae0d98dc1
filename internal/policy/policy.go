// Package policy implements the off-loading decision policies compared in
// Figure 5 (§V-B):
//
//   - Baseline — no off-loading; everything runs on the user core.
//   - SI (static instrumentation) — offline profiling selects the system
//     calls whose mean run length is at least twice the migration latency;
//     only those are instrumented, and they always off-load
//     (Chakraborty et al. style).
//   - DI (dynamic instrumentation) — every OS entry point is instrumented
//     in software; the decision logic is the functional equivalent of the
//     hardware predictor, but each entry pays the instrumentation cost
//     whether or not it off-loads (Mogul et al. style, broadened to all
//     entries).
//   - HI (hardware instrumentation) — the paper's proposal: the hardware
//     run-length predictor makes a single-cycle decision.
//
// Policies are per-core objects, exactly as each core would own its own
// predictor hardware.
package policy

import (
	"fmt"

	"offloadsim/internal/core"
	"offloadsim/internal/stats"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
)

// Kind enumerates the policy families.
type Kind int

const (
	// Baseline never off-loads.
	Baseline Kind = iota
	// StaticInstrumentation is SI.
	StaticInstrumentation
	// DynamicInstrumentation is DI.
	DynamicInstrumentation
	// HardwarePredictor is HI.
	HardwarePredictor
	// Oracle off-loads on the invocation's true run length with zero
	// overhead: the upper bound any predictor-based policy can reach.
	Oracle
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case StaticInstrumentation:
		return "SI"
	case DynamicInstrumentation:
		return "DI"
	case HardwarePredictor:
		return "HI"
	case Oracle:
		return "oracle"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Overheads sets the decision-making costs in cycles, paid on the user
// core at every instrumented OS entry.
type Overheads struct {
	// SI is the cost of the static off-load branch on instrumented
	// syscalls (§II measures the getpid example at 17->33 instructions
	// for the most trivial form).
	SI int
	// DI is the cost of full software instrumentation at every entry:
	// examining registers and internal structures runs "to hundreds of
	// cycles" (§II); it is paid even when the verdict is "stay".
	DI int
	// HI is the hardware predictor lookup: single cycle (§II).
	HI int
}

// DefaultOverheads returns the §II-derived costs. DI's examination of
// "multiple register values, or accessing internal data structures" puts
// it at the hundreds-of-cycles end of §II's range.
func DefaultOverheads() Overheads {
	return Overheads{SI: 16, DI: 320, HI: 1}
}

// Validate rejects negative overheads.
func (o Overheads) Validate() error {
	if o.SI < 0 || o.DI < 0 || o.HI < 0 {
		return fmt.Errorf("policy: negative overhead in %+v", o)
	}
	return nil
}

// Decision is the verdict for one OS entry.
type Decision struct {
	Offload bool
	// Overhead is the decision cost in cycles charged to the user core.
	Overhead int
	// Predicted is the run-length estimate behind the verdict (0 when
	// the policy does not estimate).
	Predicted int
	// Source says which sub-predictor produced Predicted (predictor-based
	// policies only; zero-valued otherwise).
	Source core.PredictionSource
}

// Policy is the per-core decision interface. Decide is consulted at every
// transition to privileged mode; Observe feeds back the invocation's
// actual instruction count after it retires.
type Policy interface {
	Kind() Kind
	Name() string
	Decide(seg *trace.Segment) Decision
	Observe(seg *trace.Segment, d Decision, actual int)
	// Threshold returns the current off-load threshold N; policies
	// without a threshold return 0.
	Threshold() int
	// SetThreshold installs a new N (driven by the dynamic tuner).
	SetThreshold(n int)
	// Stats exposes decision accounting.
	Stats() *Stats
}

// Stats counts decisions and overhead.
type Stats struct {
	Entries        stats.Counter
	Offloads       stats.Counter
	OverheadCycles stats.Counter
}

// OffloadRate returns off-loads per OS entry.
func (s *Stats) OffloadRate() float64 {
	return stats.Ratio(s.Offloads.Value(), s.Entries.Value())
}

func (s *Stats) record(d Decision) {
	s.Entries.Inc()
	if d.Offload {
		s.Offloads.Inc()
	}
	s.OverheadCycles.Add(uint64(d.Overhead))
}

// baseline never off-loads and costs nothing.
type baseline struct {
	stats Stats
}

// NewBaseline returns the no-off-loading policy.
func NewBaseline() Policy { return &baseline{} }

func (b *baseline) Kind() Kind   { return Baseline }
func (b *baseline) Name() string { return "baseline" }
func (b *baseline) Decide(seg *trace.Segment) Decision {
	d := Decision{}
	b.stats.record(d)
	return d
}
func (b *baseline) Observe(*trace.Segment, Decision, int) {}
func (b *baseline) Threshold() int                        { return 0 }
func (b *baseline) SetThreshold(int)                      {}
func (b *baseline) Stats() *Stats                         { return &b.stats }

// static is SI: a fixed set of instrumented syscalls that always off-load.
type static struct {
	instrumented [syscalls.NumIDs]bool
	overhead     int
	stats        Stats
}

// SIProfileFactor is the selection rule from §V-B: instrument the OS
// routines whose profiled mean run length is at least twice the migration
// latency.
const SIProfileFactor = 2.0

// NewStatic builds SI for a given migration latency. The "offline
// profile" is the syscall catalog's nominal mean lengths — the best case
// for static profiling, since it is exact. Trap handlers are not
// instrumented: static proposals targeted system calls.
func NewStatic(migrationLatency int, ov Overheads) Policy {
	s := &static{overhead: ov.SI}
	for _, spec := range syscalls.All() {
		if syscalls.IsTrap(spec.ID) {
			continue
		}
		mean := float64(spec.BaseLength) + float64(float64(spec.ArgScale)*float64(spec.ArgClasses-1)/2)
		if mean >= SIProfileFactor*float64(migrationLatency) {
			s.instrumented[spec.ID] = true
		}
	}
	return s
}

// InstrumentedCount reports how many syscalls SI instruments (tests).
func InstrumentedCount(p Policy) int {
	s, ok := p.(*static)
	if !ok {
		return 0
	}
	n := 0
	for _, b := range s.instrumented {
		if b {
			n++
		}
	}
	return n
}

func (s *static) Kind() Kind   { return StaticInstrumentation }
func (s *static) Name() string { return "SI" }
func (s *static) Decide(seg *trace.Segment) Decision {
	var d Decision
	if seg.Kind == trace.SyscallSegment && s.instrumented[seg.Sys] {
		d = Decision{Offload: true, Overhead: s.overhead}
	}
	s.stats.record(d)
	return d
}
func (s *static) Observe(*trace.Segment, Decision, int) {}
func (s *static) Threshold() int                        { return 0 }
func (s *static) SetThreshold(int)                      {}
func (s *static) Stats() *Stats                         { return &s.stats }

// predictorPolicy is the shared body of DI and HI: both consult a
// run-length prediction engine and compare against N; they differ only in
// the per-entry cost and the policy kind they report.
type predictorPolicy struct {
	kind     Kind
	name     string
	engine   *core.Engine
	overhead int
	stats    Stats
}

// NewDynamic builds DI: the software twin of the hardware engine. It
// instruments *all* OS entry points (syscalls and traps), paying ov.DI
// cycles per entry.
func NewDynamic(pred core.Predictor, threshold int, ov Overheads) Policy {
	return &predictorPolicy{
		kind:     DynamicInstrumentation,
		name:     "DI",
		engine:   core.NewEngine(pred, threshold),
		overhead: ov.DI,
	}
}

// NewHardware builds HI: the paper's hardware predictor policy with its
// single-cycle decision.
func NewHardware(pred core.Predictor, threshold int, ov Overheads) Policy {
	return &predictorPolicy{
		kind:     HardwarePredictor,
		name:     "HI",
		engine:   core.NewEngine(pred, threshold),
		overhead: ov.HI,
	}
}

func (p *predictorPolicy) Kind() Kind   { return p.kind }
func (p *predictorPolicy) Name() string { return p.name }

func (p *predictorPolicy) Decide(seg *trace.Segment) Decision {
	dec := p.engine.Decide(seg.AState)
	d := Decision{Offload: dec.Offload, Overhead: p.overhead, Predicted: dec.Predicted, Source: dec.Source}
	p.stats.record(d)
	return d
}

func (p *predictorPolicy) Observe(seg *trace.Segment, d Decision, actual int) {
	p.engine.Train(seg.AState, core.Decision{Offload: d.Offload, Predicted: d.Predicted},
		actual, seg.Kind == trace.SyscallSegment)
}

func (p *predictorPolicy) Threshold() int     { return p.engine.Threshold() }
func (p *predictorPolicy) SetThreshold(n int) { p.engine.SetThreshold(n) }
func (p *predictorPolicy) Stats() *Stats      { return &p.stats }

// Engine exposes the prediction engine of DI/HI policies, whose books
// hold their accuracy; it returns nil for other kinds.
func Engine(p Policy) *core.Engine {
	if pp, ok := p.(*predictorPolicy); ok {
		return pp.engine
	}
	return nil
}

// oracle decides on the true run length: what a perfect single-cycle
// predictor would do. It bounds the benefit any history mechanism can
// deliver and is used in ablation studies.
type oracle struct {
	threshold int
	stats     Stats
}

// NewOracle builds the perfect-information policy.
func NewOracle(threshold int) Policy { return &oracle{threshold: threshold} }

func (o *oracle) Kind() Kind   { return Oracle }
func (o *oracle) Name() string { return "oracle" }
func (o *oracle) Decide(seg *trace.Segment) Decision {
	d := Decision{Offload: seg.Instrs > o.threshold, Predicted: seg.Instrs}
	o.stats.record(d)
	return d
}
func (o *oracle) Observe(*trace.Segment, Decision, int) {}
func (o *oracle) Threshold() int                        { return o.threshold }
func (o *oracle) SetThreshold(n int)                    { o.threshold = n }
func (o *oracle) Stats() *Stats                         { return &o.stats }

// New constructs a policy of the given kind with standard components:
// predictor-based kinds get a fresh 200-entry CAM, or the 1500-entry
// direct-mapped table when directMapped is set.
func New(kind Kind, migrationLatency, threshold int, ov Overheads, directMapped bool) (Policy, error) {
	if err := ov.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case Baseline:
		return NewBaseline(), nil
	case StaticInstrumentation:
		return NewStatic(migrationLatency, ov), nil
	case DynamicInstrumentation:
		return NewDynamic(newPredictor(directMapped), threshold, ov), nil
	case HardwarePredictor:
		return NewHardware(newPredictor(directMapped), threshold, ov), nil
	case Oracle:
		return NewOracle(threshold), nil
	}
	return nil, fmt.Errorf("policy: unknown kind %d", int(kind))
}

// newPredictor builds a table of the paper's size in either organization.
func newPredictor(directMapped bool) core.Predictor {
	if directMapped {
		return core.NewDirectMappedPredictor(core.DefaultDirectMappedEntries)
	}
	return core.NewCAMPredictor(core.DefaultCAMEntries)
}
