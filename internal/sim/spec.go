package sim

import (
	"fmt"

	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/cpu"
	"offloadsim/internal/migration"
	"offloadsim/internal/policy"
	"offloadsim/internal/workloads"
)

// Spec is the declarative form of one simulation request, shared by
// every front end: it is the offsimd job body (POST /v1/jobs and
// /v1/peer/execute), the per-point spec of a sweep grid, and what the
// cmd/offsim and cmd/sweep flags fill in. Config is the only code that
// turns one into a Config. It never enables Config.Parallel, so every
// front end runs the serial detailed engine or the sampled one; the
// quantum-parallel engine is library-only (docs/PARALLEL.md).
// Zero/omitted fields take the documented defaults; pointer fields
// distinguish "absent" from an explicit zero.
type Spec struct {
	// Workload is a profile name (required): apache, specjbb, derby, ...
	Workload string `json:"workload"`
	// Policy is a decision-policy name or alias (default "HI").
	Policy string `json:"policy,omitempty"`
	// Threshold is the off-load threshold N in instructions (default
	// 1000; pointer so an explicit 0 survives).
	Threshold *int `json:"threshold,omitempty"`
	// LatencyCycles is the one-way migration latency (default 100).
	LatencyCycles *int `json:"latency_cycles,omitempty"`
	// Cores is the number of user cores (default 1).
	Cores int `json:"cores,omitempty"`
	// OSSlots is the OS core's hardware context count (default 1, at
	// most MaxOSCores).
	OSSlots int `json:"os_slots,omitempty"`
	// OSCores sizes the multi-OS-core off-load cluster (default 1 =
	// classic single OS core; docs/OSCORES.md).
	OSCores int `json:"os_cores,omitempty"`
	// Affinity maps syscall classes to cluster cores, e.g.
	// "file=0,network=1,*=0" (requires os_cores > 1).
	Affinity string `json:"affinity,omitempty"`
	// Asymmetry sets per-OS-core speed factors, e.g. "1,0.5".
	Asymmetry string `json:"asymmetry,omitempty"`
	// Async enables fire-and-forget off-load for side-effect-only
	// syscall classes.
	Async bool `json:"async,omitempty"`
	// AsyncSlots, DepthN and Rebalance set the cluster's
	// OSCores.AsyncSlots, OSCores.DepthN and OSCores.Rebalance. Only the
	// CLIs set them: they have no JSON name, so every wire decoder
	// (which disallows unknown fields) refuses a body that names them.
	AsyncSlots int  `json:"-"`
	DepthN     int  `json:"-"`
	Rebalance  bool `json:"-"`
	// DynamicN enables the epoch threshold tuner.
	DynamicN bool `json:"dynamic_n,omitempty"`
	// DMPredictor selects the 1500-entry direct-mapped predictor.
	DMPredictor bool `json:"dm_predictor,omitempty"`
	// InstrumentOnly charges decision overhead but never migrates.
	InstrumentOnly bool `json:"instrument_only,omitempty"`
	// MOESI switches the coherence protocol from MESI.
	MOESI bool `json:"moesi,omitempty"`
	// OSL1KB shrinks the OS core's L1s (0 = same as user cores; at
	// most the user cores' 32 KB).
	OSL1KB int `json:"os_l1_kb,omitempty"`
	// WarmupInstrs / MeasureInstrs are per-core instruction budgets
	// (defaults 300k / 1M).
	WarmupInstrs  *uint64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs *uint64 `json:"measure_instrs,omitempty"`
	// Seed drives all stochastic behaviour (default 1).
	Seed *uint64 `json:"seed,omitempty"`
	// Mode selects the execution engine: "detailed" (default) simulates
	// every instruction; "sampled" runs interval sampling with
	// functional warming at the default schedule (docs/SAMPLING.md).
	// The two modes of one spec never share a cache key.
	Mode string `json:"mode,omitempty"`
	// Replicas merges that many independent sampled replicas (requires
	// mode "sampled"; default 1).
	Replicas int `json:"replicas,omitempty"`
	// Trace captures a telemetry event trace alongside the result
	// (docs/TELEMETRY.md), retrievable from GET /v1/traces/{id}. Requires
	// mode detailed. Tracing never changes the result — the job still
	// populates the shared cache — but a trace job always runs its own
	// simulation (no cache hit, no coalescing), because a cached result
	// document carries no event timeline.
	Trace bool `json:"trace,omitempty"`
	// TraceIntervalInstrs additionally samples the interval time-series
	// every that many retired instructions (requires trace).
	TraceIntervalInstrs uint64 `json:"trace_interval_instrs,omitempty"`
}

// Config translates the spec into a validated simulation config. All
// defaulting happens here, so two specs that differ only in spelled-out
// defaults translate to identical configs (and thus one cache key).
func (s Spec) Config() (Config, error) {
	prof, ok := workloads.ByName(s.Workload)
	if !ok {
		return Config{}, fmt.Errorf("unknown workload %q (have: %v)", s.Workload, workloads.Names())
	}
	polName := s.Policy
	if polName == "" {
		polName = "HI"
	}
	kind, ok := policy.Parse(polName)
	if !ok {
		return Config{}, fmt.Errorf("unknown policy %q (baseline, SI, DI, HI, oracle)", s.Policy)
	}

	cfg := DefaultConfig(prof)
	cfg.Policy = kind
	if s.Threshold != nil {
		if *s.Threshold < 0 {
			return Config{}, fmt.Errorf("negative threshold %d", *s.Threshold)
		}
		cfg.Threshold = *s.Threshold
	}
	lat := 100
	if s.LatencyCycles != nil {
		lat = *s.LatencyCycles
	}
	if lat < 0 {
		return Config{}, fmt.Errorf("negative latency_cycles %d", lat)
	}
	cfg.Migration = migration.Custom(lat)
	if s.Cores < 0 {
		return Config{}, fmt.Errorf("negative cores %d", s.Cores)
	}
	if s.Cores > 0 {
		cfg.UserCores = s.Cores
	}
	if s.OSSlots < 0 || s.OSSlots > MaxOSCores {
		return Config{}, fmt.Errorf("os_slots %d outside [0, %d]", s.OSSlots, MaxOSCores)
	}
	if s.OSSlots > 0 {
		cfg.OSCoreSlots = s.OSSlots
	}
	if s.OSCores < 0 {
		return Config{}, fmt.Errorf("negative os_cores %d", s.OSCores)
	}
	if s.OSCores > 1 || s.Affinity != "" || s.Asymmetry != "" || s.Async ||
		s.AsyncSlots != 0 || s.DepthN != 0 || s.Rebalance {
		k := s.OSCores
		if k == 0 {
			k = 1
		}
		cfg.OSCores = OSCores{
			Enabled: true, K: k,
			Affinity: s.Affinity, Asymmetry: s.Asymmetry, Async: s.Async,
			AsyncSlots: s.AsyncSlots, DepthN: s.DepthN, Rebalance: s.Rebalance,
		}
	}
	cfg.InstrumentOnly = s.InstrumentOnly
	cfg.DirectMappedPredictor = s.DMPredictor
	if s.MOESI {
		cc := coherence.DefaultConfig()
		cc.Protocol = coherence.MOESI
		cfg.Coherence = cc
	}
	// The OS core's L1s can only shrink below the user cores'.
	osCPU := cpu.DefaultConfig()
	if maxKB := osCPU.L1D.SizeBytes >> 10; s.OSL1KB < 0 || s.OSL1KB > maxKB {
		return Config{}, fmt.Errorf("os_l1_kb %d outside [0, %d]", s.OSL1KB, maxKB)
	}
	if s.OSL1KB > 0 {
		osCPU.L1I.SizeBytes = s.OSL1KB << 10
		osCPU.L1D.SizeBytes = s.OSL1KB << 10
		cfg.OSCPU = &osCPU
	}
	if s.WarmupInstrs != nil {
		cfg.WarmupInstrs = *s.WarmupInstrs
	}
	if s.MeasureInstrs != nil {
		if *s.MeasureInstrs == 0 {
			return Config{}, fmt.Errorf("measure_instrs must be positive")
		}
		cfg.MeasureInstrs = *s.MeasureInstrs
	}
	if s.Seed != nil {
		cfg.Seed = *s.Seed
	}
	if s.DynamicN {
		cfg.DynamicN = true
		tc := core.DefaultTunerConfig()
		// Scale the paper's 25M/100M epochs down to the request's
		// measurement budget.
		tc.SampleEpoch = cfg.MeasureInstrs / 40
		if tc.SampleEpoch < 1000 {
			tc.SampleEpoch = 1000
		}
		tc.BaseRun = tc.SampleEpoch * 4
		tc.MaxRun = tc.BaseRun * 4
		cfg.Tuner = tc
	}
	switch s.Mode {
	case "", "detailed":
		if s.Replicas > 1 {
			return Config{}, fmt.Errorf("replicas %d requires mode \"sampled\"", s.Replicas)
		}
	case "sampled":
		cfg.Sampling = DefaultSampling()
		if s.Replicas < 0 {
			return Config{}, fmt.Errorf("negative replicas %d", s.Replicas)
		}
		if s.Replicas > 0 {
			cfg.Sampling.Replicas = s.Replicas
		}
	default:
		return Config{}, fmt.Errorf("unknown mode %q (detailed, sampled)", s.Mode)
	}
	if s.Trace && cfg.Sampling.Enabled {
		return Config{}, fmt.Errorf("trace requires mode \"detailed\" (sampled mode has no cycle-accurate timeline)")
	}
	if s.TraceIntervalInstrs > 0 && !s.Trace {
		return Config{}, fmt.Errorf("trace_interval_instrs requires trace")
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
