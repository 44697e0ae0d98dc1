// Package server implements offsimd: a concurrent simulation-as-a-service
// daemon over the offloadsim library. It exposes an HTTP JSON API
// (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/results/{id}, /healthz,
// /metrics) backed by a bounded job queue with backpressure, a worker
// pool that runs simulations concurrently, and a deterministic result
// cache keyed by the canonical hash of the normalized config+seed, so
// repeated sweep points — the common case when exploring the paper's
// policy × threshold × latency design space — are served in O(1).
package server

import (
	"fmt"
	"time"

	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/cpu"
	"offloadsim/internal/migration"
	"offloadsim/internal/obs"
	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/workloads"
)

// JobSpec is the wire form of one simulation request. Zero/omitted
// fields take the documented defaults; pointer fields distinguish
// "absent" from an explicit zero. The spec deliberately mirrors the
// cmd/offsim flag surface.
type JobSpec struct {
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
	// most sim.MaxOSCores).
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
	// functional warming at the default schedule (docs/SAMPLING.md);
	// "parallel" runs detailed execution on the quantum-synchronized
	// parallel engine (docs/PARALLEL.md). No two modes of the same spec
	// share a cache key.
	Mode string `json:"mode,omitempty"`
	// Replicas merges that many independent sampled replicas (requires
	// mode "sampled"; default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workers sizes the parallel engine's host-goroutine pool (requires
	// mode "parallel"; 0 lets the server clamp to its free worker
	// slots). Workers never affects results — only wall time — and is
	// not part of the cache key.
	Workers int `json:"workers,omitempty"`
	// Trace captures a telemetry event trace alongside the result
	// (docs/TELEMETRY.md), retrievable from GET /v1/traces/{id}. Requires
	// mode detailed or parallel. Tracing never changes the result — the
	// job still populates the shared cache — but a trace job always runs
	// its own simulation (no cache hit, no coalescing), because a cached
	// result document carries no event timeline.
	Trace bool `json:"trace,omitempty"`
	// TraceIntervalInstrs additionally samples the interval time-series
	// every that many retired instructions (requires trace).
	TraceIntervalInstrs uint64 `json:"trace_interval_instrs,omitempty"`
}

// Config translates the spec into a validated simulation config. All
// defaulting happens here, so two specs that differ only in spelled-out
// defaults translate to identical configs (and thus one cache key).
func (j JobSpec) Config() (sim.Config, error) {
	prof, ok := workloads.ByName(j.Workload)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown workload %q (have: %v)", j.Workload, workloads.Names())
	}
	polName := j.Policy
	if polName == "" {
		polName = "HI"
	}
	kind, ok := policy.Parse(polName)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown policy %q (baseline, SI, DI, HI, oracle)", j.Policy)
	}

	cfg := sim.DefaultConfig(prof)
	cfg.Policy = kind
	if j.Threshold != nil {
		if *j.Threshold < 0 {
			return sim.Config{}, fmt.Errorf("negative threshold %d", *j.Threshold)
		}
		cfg.Threshold = *j.Threshold
	}
	lat := 100
	if j.LatencyCycles != nil {
		lat = *j.LatencyCycles
	}
	if lat < 0 {
		return sim.Config{}, fmt.Errorf("negative latency_cycles %d", lat)
	}
	cfg.Migration = migration.Custom(lat)
	if j.Cores < 0 {
		return sim.Config{}, fmt.Errorf("negative cores %d", j.Cores)
	}
	if j.Cores > 0 {
		cfg.UserCores = j.Cores
	}
	if j.OSSlots < 0 || j.OSSlots > sim.MaxOSCores {
		return sim.Config{}, fmt.Errorf("os_slots %d outside [0, %d]", j.OSSlots, sim.MaxOSCores)
	}
	if j.OSSlots > 0 {
		cfg.OSCoreSlots = j.OSSlots
	}
	if j.OSCores < 0 {
		return sim.Config{}, fmt.Errorf("negative os_cores %d", j.OSCores)
	}
	if j.OSCores > 1 || j.Affinity != "" || j.Asymmetry != "" || j.Async {
		k := j.OSCores
		if k == 0 {
			k = 1
		}
		cfg.OSCores = sim.OSCores{
			Enabled: true, K: k,
			Affinity: j.Affinity, Asymmetry: j.Asymmetry, Async: j.Async,
		}
	}
	cfg.InstrumentOnly = j.InstrumentOnly
	cfg.DirectMappedPredictor = j.DMPredictor
	if j.MOESI {
		cc := coherence.DefaultConfig()
		cc.Protocol = coherence.MOESI
		cfg.Coherence = cc
	}
	// The OS core's L1s can only shrink below the user cores'.
	osCPU := cpu.DefaultConfig()
	if maxKB := osCPU.L1D.SizeBytes >> 10; j.OSL1KB < 0 || j.OSL1KB > maxKB {
		return sim.Config{}, fmt.Errorf("os_l1_kb %d outside [0, %d]", j.OSL1KB, maxKB)
	}
	if j.OSL1KB > 0 {
		osCPU.L1I.SizeBytes = j.OSL1KB << 10
		osCPU.L1D.SizeBytes = j.OSL1KB << 10
		cfg.OSCPU = &osCPU
	}
	if j.WarmupInstrs != nil {
		cfg.WarmupInstrs = *j.WarmupInstrs
	}
	if j.MeasureInstrs != nil {
		if *j.MeasureInstrs == 0 {
			return sim.Config{}, fmt.Errorf("measure_instrs must be positive")
		}
		cfg.MeasureInstrs = *j.MeasureInstrs
	}
	if j.Seed != nil {
		cfg.Seed = *j.Seed
	}
	if j.DynamicN {
		cfg.DynamicN = true
		tc := core.DefaultTunerConfig()
		// Scale the paper's 25M/100M epochs down to the request's
		// measurement budget, as cmd/offsim does.
		tc.SampleEpoch = cfg.MeasureInstrs / 40
		if tc.SampleEpoch < 1000 {
			tc.SampleEpoch = 1000
		}
		tc.BaseRun = tc.SampleEpoch * 4
		tc.MaxRun = tc.BaseRun * 4
		cfg.Tuner = tc
	}
	switch j.Mode {
	case "", "detailed":
		if j.Replicas > 1 {
			return sim.Config{}, fmt.Errorf("replicas %d requires mode \"sampled\"", j.Replicas)
		}
		if j.Workers != 0 {
			return sim.Config{}, fmt.Errorf("workers requires mode \"parallel\"")
		}
	case "sampled":
		cfg.Sampling = sim.DefaultSampling()
		if j.Replicas < 0 {
			return sim.Config{}, fmt.Errorf("negative replicas %d", j.Replicas)
		}
		if j.Replicas > 0 {
			cfg.Sampling.Replicas = j.Replicas
		}
		if j.Workers != 0 {
			return sim.Config{}, fmt.Errorf("workers requires mode \"parallel\"")
		}
	case "parallel":
		if j.Replicas > 1 {
			return sim.Config{}, fmt.Errorf("replicas %d requires mode \"sampled\"", j.Replicas)
		}
		if j.Workers < 0 {
			return sim.Config{}, fmt.Errorf("negative workers %d", j.Workers)
		}
		cfg.Parallel = sim.DefaultParallel()
		cfg.Parallel.Workers = j.Workers
	default:
		return sim.Config{}, fmt.Errorf("unknown mode %q (detailed, sampled, parallel)", j.Mode)
	}
	if j.Trace && cfg.Sampling.Enabled {
		return sim.Config{}, fmt.Errorf("trace requires mode \"detailed\" or \"parallel\" " +
			"(sampled mode has no cycle-accurate timeline)")
	}
	if j.TraceIntervalInstrs > 0 && !j.Trace {
		return sim.Config{}, fmt.Errorf("trace_interval_instrs requires trace")
	}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a worker (or coalesced behind
	// an identical in-flight job).
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning State = "running"
	// StateDone: finished; the result is available.
	StateDone State = "done"
	// StateFailed: simulation error, timeout, or shutdown before run.
	StateFailed State = "failed"
)

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Cached is true when the job was served from the result cache
	// without running a simulation.
	Cached bool `json:"cached"`
	// Coalesced is true when the job attached to an identical in-flight
	// job instead of enqueueing its own simulation.
	Coalesced bool `json:"coalesced,omitempty"`
	// Traced is true when the job captures a telemetry trace; once done,
	// the trace is served by GET /v1/traces/{id}.
	Traced bool `json:"traced,omitempty"`
	// Stolen is true when an overloaded owner offered this job to a
	// peer replica instead of its own queue (work-stealing).
	Stolen bool `json:"stolen,omitempty"`
	// Replica is the advertised base URL of the replica holding this
	// job (fleet mode only) — poll status and fetch results there.
	Replica string `json:"replica,omitempty"`
	Error   string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// LatencySeconds is submit-to-finish wall time, set once finished.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
}

// job is the server-side record. All mutable fields are guarded by the
// owning Server's mutex; done is closed exactly once at completion.
type job struct {
	id   string
	key  string
	spec JobSpec
	cfg  sim.Config

	state     State
	cached    bool
	coalesced bool
	trace     bool
	stolen    bool
	err       string
	result    []byte             // marshaled Result JSON, byte-identical across cache hits
	capture   *telemetry.Capture // trace jobs only, set at completion

	// tctx is the job's admission-span context: execution spans (queue
	// wait, sim execute, steal push, ...) parent under it. Zero when
	// tracing is disabled (docs/OBSERVABILITY.md).
	tctx obs.SpanContext

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	done chan struct{}
}

// telemetryOpts shapes a trace job's spec into attachment options: the
// event trace is always on, and the interval time-series rides along
// when the spec asked for a cadence.
func (j *job) telemetryOpts() telemetry.Options {
	return telemetry.Options{Events: true, IntervalInstrs: j.spec.TraceIntervalInstrs}
}

// status snapshots the job. Caller must hold the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Key:         j.key,
		State:       j.state,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Traced:      j.trace,
		Stolen:      j.stolen,
		Error:       j.err,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
		st.LatencySeconds = j.finishedAt.Sub(j.submittedAt).Seconds()
	}
	return st
}
