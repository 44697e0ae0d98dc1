package sim

import "fmt"

// WarmPolicy selects how non-sampled intervals keep microarchitectural
// state alive between detailed measurement windows.
type WarmPolicy int

const (
	// WarmFunctional replays unsampled intervals in functional-warming
	// mode: segments still flow through the caches, directory and
	// predictor tables (with strided references), but detailed
	// per-instruction cycle accounting is skipped. This is the default
	// and the source of the speedup.
	WarmFunctional WarmPolicy = iota
	// WarmDetailed executes unsampled intervals at full detail. No
	// speedup — the reference mode for isolating extrapolation error
	// from warming error in accuracy studies.
	WarmDetailed
)

// String implements fmt.Stringer.
func (p WarmPolicy) String() string {
	switch p {
	case WarmFunctional:
		return "functional"
	case WarmDetailed:
		return "detailed"
	}
	return fmt.Sprintf("WarmPolicy(%d)", int(p))
}

// Default sampling parameters. Interval length trades measurement
// granularity against mode-switch overhead; the ratio and warm stride
// together set the speedup ceiling, and the detailed warm-up intervals
// repair the cache state strided warming leaves behind before each
// measurement (see docs/SAMPLING.md for the error trade-off measured
// across the four workload classes).
const (
	DefaultSampleInterval     = 20_000
	DefaultSampleRatio        = 50
	DefaultSampleWarmStride   = 32
	DefaultSampleOSWarmStride = 8
	DefaultSampleDetailedWarm = 1
	DefaultSampleWarmupTail   = 250_000
)

// Sampling configures interval-sampled execution (Config.Sampling). The
// zero value disables sampling; an enabled block with zero fields takes
// the documented defaults.
type Sampling struct {
	// Enabled switches the run from full detailed simulation to
	// interval sampling with functional warming.
	Enabled bool
	// IntervalInstrs is the per-core instruction length of one interval
	// (default 10,000).
	IntervalInstrs uint64
	// Ratio measures 1 of every Ratio intervals in full detail; the rest
	// run in warming mode (default 25).
	Ratio int
	// DetailedWarmIntervals is the number of intervals executed at full
	// detail — but not measured — immediately before each measured
	// interval, repairing the cache and recency state that strided
	// warming lets decay (default 2; there is no way to request 0, which
	// would measure cold caches).
	DetailedWarmIntervals int
	// Warming selects the unsampled-interval execution mode (default
	// WarmFunctional). The warmup phase uses the same mode.
	Warming WarmPolicy
	// WarmStride performs 1 of every WarmStride cache references while
	// warming, scaling the observed stall back up for clock estimation
	// (default 8). Stride 1 warms with every reference.
	WarmStride int
	// OSWarmStride is the reference stride of the OS core while warming
	// (default 2, denser than WarmStride). The OS node's L2 is warmed
	// only by the minority off-loaded stream, so at the user stride it
	// would decay faster than any detailed warm-up interval could
	// repair, systematically slowing off-loaded segments.
	OSWarmStride int
	// WarmupTailInstrs is the length of the warmup phase's tail executed
	// at full reference density (stride 1), so the multi-megabyte shared
	// L2 reaches its steady-state contents before measurement begins —
	// strided warming alone populates it WarmStride times too slowly
	// (default 250,000; clamped to WarmupInstrs).
	WarmupTailInstrs uint64
	// Replicas runs that many independent interval-sampled replicas
	// (seeds Seed, Seed+1, ...) and merges them deterministically
	// (default 1). Replicas multiply CPU cost but replay in parallel
	// and tighten the error estimate.
	Replicas int
}

// MaxReplicas bounds Sampling.Replicas. Run sizes its per-replica state
// from the count before any replica runs, and the error bound tightens
// only as 1/sqrt(Replicas), so a few dozen is already plenty.
const MaxReplicas = 64

// DefaultSampling returns an enabled block with the default parameters.
func DefaultSampling() Sampling {
	return Sampling{Enabled: true}.withDefaults()
}

// withDefaults fills zero fields of an enabled block; a disabled block
// normalizes to the zero value so detailed configs canonicalize
// identically whatever stale sampling fields they carry.
func (s Sampling) withDefaults() Sampling {
	if !s.Enabled {
		return Sampling{}
	}
	if s.IntervalInstrs == 0 {
		s.IntervalInstrs = DefaultSampleInterval
	}
	if s.Ratio == 0 {
		s.Ratio = DefaultSampleRatio
	}
	if s.DetailedWarmIntervals == 0 {
		s.DetailedWarmIntervals = DefaultSampleDetailedWarm
	}
	if s.WarmStride == 0 {
		s.WarmStride = DefaultSampleWarmStride
	}
	if s.OSWarmStride == 0 {
		s.OSWarmStride = DefaultSampleOSWarmStride
	}
	if s.WarmupTailInstrs == 0 {
		s.WarmupTailInstrs = DefaultSampleWarmupTail
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	return s
}

// Validate checks an enabled block (disabled blocks are always valid).
func (s Sampling) Validate() error {
	if !s.Enabled {
		return nil
	}
	s = s.withDefaults()
	if s.Ratio < 1 {
		return fmt.Errorf("sim: sampling ratio %d < 1", s.Ratio)
	}
	if s.WarmStride < 1 {
		return fmt.Errorf("sim: sampling warm stride %d < 1", s.WarmStride)
	}
	if s.OSWarmStride < 1 {
		return fmt.Errorf("sim: sampling OS warm stride %d < 1", s.OSWarmStride)
	}
	if s.DetailedWarmIntervals < 0 {
		return fmt.Errorf("sim: sampling detailed warm intervals %d < 0", s.DetailedWarmIntervals)
	}
	if s.DetailedWarmIntervals >= s.Ratio {
		return fmt.Errorf("sim: sampling detailed warm intervals %d >= ratio %d", s.DetailedWarmIntervals, s.Ratio)
	}
	if s.Replicas < 1 || s.Replicas > MaxReplicas {
		return fmt.Errorf("sim: sampling replicas %d outside [1, %d]", s.Replicas, MaxReplicas)
	}
	if s.Warming != WarmFunctional && s.Warming != WarmDetailed {
		return fmt.Errorf("sim: unknown warm policy %d", int(s.Warming))
	}
	return nil
}
