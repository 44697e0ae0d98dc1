package offloadsim

import (
	"fmt"
	"io"

	"offloadsim/internal/cluster"
	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/cpu"
	"offloadsim/internal/energy"
	"offloadsim/internal/experiments"
	"offloadsim/internal/migration"
	"offloadsim/internal/obs"
	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/workloads"
)

// Config describes one simulation run: workload, decision policy,
// threshold, migration engine, core count and measurement budgets.
type Config = sim.Config

// Result is the measured outcome of a run.
type Result = sim.Result

// Simulator is a configured system ready to Run.
type Simulator = sim.Simulator

// Workload is a benchmark profile.
type Workload = workloads.Profile

// PolicyKind selects the off-loading decision mechanism.
type PolicyKind = policy.Kind

// Decision policies, in the paper's Figure 5 vocabulary.
const (
	// Baseline never off-loads: everything runs on the user core.
	Baseline = policy.Baseline
	// StaticInstrumentation (SI) off-loads a profile-selected set of
	// long system calls (Chakraborty et al. style).
	StaticInstrumentation = policy.StaticInstrumentation
	// DynamicInstrumentation (DI) instruments every OS entry in
	// software (Mogul et al. style, broadened per §V-B).
	DynamicInstrumentation = policy.DynamicInstrumentation
	// HardwarePredictor (HI) is the paper's hardware run-length
	// predictor with single-cycle decisions.
	HardwarePredictor = policy.HardwarePredictor
	// OraclePolicy decides on the true run length with zero overhead:
	// the upper bound for any prediction mechanism.
	OraclePolicy = policy.Oracle
)

// MigrationEngine is an off-load transport with a one-way latency.
type MigrationEngine = migration.Engine

// Conservative returns the ~5,000-cycle unmodified-kernel migration.
func Conservative() MigrationEngine { return migration.Conservative() }

// Fast returns the ~3,000-cycle improved software switch.
func Fast() MigrationEngine { return migration.Fast() }

// Aggressive returns the ~100-cycle hardware thread transfer.
func Aggressive() MigrationEngine { return migration.Aggressive() }

// CustomMigration returns an engine with an arbitrary one-way latency.
func CustomMigration(oneWayCycles int) MigrationEngine { return migration.Custom(oneWayCycles) }

// Predictor is the run-length prediction interface (the paper's core
// hardware structure); use it directly to embed the mechanism in other
// systems.
type Predictor = core.Predictor

// Prediction is a predicted run length and its source (local table entry
// or global last-3 average).
type Prediction = core.Prediction

// NewCAMPredictor builds the 200-entry fully-associative organization
// (~2 KB).
func NewCAMPredictor(entries int) Predictor { return core.NewCAMPredictor(entries) }

// NewDirectMappedPredictor builds the 1500-entry tag-less organization
// (~3.3 KB).
func NewDirectMappedPredictor(entries int) Predictor { return core.NewDirectMappedPredictor(entries) }

// DefaultCAMEntries and DefaultDirectMappedEntries are the paper's table
// sizes.
const (
	DefaultCAMEntries          = core.DefaultCAMEntries
	DefaultDirectMappedEntries = core.DefaultDirectMappedEntries
)

// TunerConfig parameterizes the §III-B dynamic threshold estimation.
type TunerConfig = core.TunerConfig

// DefaultTunerConfig returns the paper's epoch parameters (25 M-instruction
// samples, 100 M runs, 1% improvement margin).
func DefaultTunerConfig() TunerConfig { return core.DefaultTunerConfig() }

// Spec is the declarative form of one simulation request, shared by
// every front end: the offsimd job body, a sweep grid's per-point spec,
// and the cmd/offsim and cmd/sweep flag sets. Spec.Config is the one
// translation into a validated Config, with the defaults and admission
// bounds documented on each field.
type Spec = sim.Spec

// DefaultConfig returns a single-user-core Table II configuration for the
// given workload, using the hardware policy at N=1000 over the aggressive
// migration engine.
func DefaultConfig(w *Workload) Config { return sim.DefaultConfig(w) }

// ParsePolicy resolves a policy name or alias (case-insensitive):
// "baseline"/"none", "SI"/"static", "DI"/"dynamic", "HI"/"hardware",
// "oracle". The second result is false for unknown names.
func ParsePolicy(s string) (PolicyKind, bool) { return policy.Parse(s) }

// Canonicalize returns the normalized form of cfg: defaults filled the
// way New fills them, and presentation-only degrees of freedom (engine
// names, uniform per-core workload lists, stale tuner state) erased, so
// equivalent configurations compare equal. Invalid configs are rejected.
func Canonicalize(cfg Config) (Config, error) { return sim.Canonicalize(cfg) }

// ConfigKey returns a stable hex digest identifying the simulation cfg
// describes: two configs share a key iff they canonicalize identically
// (seed included). It is the cache key of the offsimd result cache.
func ConfigKey(cfg Config) (string, error) { return sim.CanonicalKey(cfg) }

// New builds a Simulator, validating the configuration. A sampled
// config builds one replica; Sampling.Replicas > 1 needs Run.
func New(cfg Config) (*Simulator, error) { return sim.New(cfg) }

// Run builds and runs a simulation in one step, on the engine the
// config selects: serial or parallel detailed (Config.Parallel), or
// interval-sampled (Config.Sampling), whose Sampling.Replicas replicas
// run in parallel and merge deterministically.
func Run(cfg Config) (Result, error) { return sim.Run(cfg) }

// Sampling configures interval-sampled execution (Config.Sampling): one
// interval in Sampling.Ratio runs in full detail, the rest keep caches
// and predictors warm at a fraction of the cost, and the detailed
// intervals are extrapolated into a Result.
type Sampling = sim.Sampling

// DefaultSampling returns an enabled sampling block with the validated
// default schedule (see docs/SAMPLING.md).
func DefaultSampling() Sampling { return sim.DefaultSampling() }

// Parallel configures quantum-synchronized parallel detailed execution
// (Config.Parallel): simulated cores advance one quantum concurrently
// against private cache state, and cross-core interactions reconcile
// serially at each barrier. Results are byte-identical run-to-run at any
// Workers/GOMAXPROCS, but not bit-identical to the serial engine (see
// docs/PARALLEL.md for the accuracy data).
type Parallel = sim.Parallel

// DefaultParallel returns an enabled parallel block with the default
// quantum; Workers 0 resolves to GOMAXPROCS at run time.
func DefaultParallel() Parallel { return sim.DefaultParallel() }

// OSCores configures the multi-OS-core cluster model (Config.OSCores):
// K OS cores with per-syscall-class affinity routing, asymmetric
// big/little speed factors, optional fire-and-forget dispatch for
// side-effect-only classes, queue-depth-aware threshold modulation and
// load rebalancing. A K=1 synchronous symmetric block is exactly the
// classic single-OS-core model and canonicalizes back to disabled. See
// docs/OSCORES.md.
type OSCores = sim.OSCores

// OSCoresReport is the Result block of a multi-OS-core run: per-core
// service metrics, per-class routing statistics and async accounting.
type OSCoresReport = sim.OSCoresProvenance

// DefaultOSCores returns an enabled synchronous k-core block with
// round-robin class affinity and symmetric speeds.
func DefaultOSCores(k int) OSCores { return sim.DefaultOSCores(k) }

// TelemetryOptions selects what a traced run records: the structured
// event trace (Events) and/or the interval time-series (IntervalInstrs
// cadence). See docs/TELEMETRY.md.
type TelemetryOptions = telemetry.Options

// TraceCapture is one traced run's output: metadata, the merged event
// timeline in deterministic (time, core, seq) order, and the interval
// series.
type TraceCapture = telemetry.Capture

// TraceEvent is one structured simulation event.
type TraceEvent = telemetry.Event

// TraceIntervalPoint is one interval time-series sample.
type TraceIntervalPoint = telemetry.IntervalPoint

// RunTraced builds and runs a detailed or parallel simulation with
// telemetry attached. Tracing never perturbs the Result: it is
// byte-identical to an untraced Run of the same Config. Sampled mode is
// rejected (no cycle-accurate timeline).
func RunTraced(cfg Config, opts TelemetryOptions) (Result, *TraceCapture, error) {
	return sim.RunTraced(cfg, opts)
}

// WriteTraceJSONL writes a capture as newline-delimited JSON: a metadata
// header line, then one object per event in timeline order.
func WriteTraceJSONL(w io.Writer, c *TraceCapture) error { return telemetry.WriteJSONL(w, c) }

// WriteTraceChrome writes a capture in the Chrome trace-event format,
// loadable directly in Perfetto or chrome://tracing.
func WriteTraceChrome(w io.Writer, c *TraceCapture) error { return telemetry.WriteChrome(w, c) }

// ReadJSONLTrace parses a JSONL export back into a capture. A service
// span export (offsimd's /v1/debug/traces) is an error.
func ReadJSONLTrace(r io.Reader) (*TraceCapture, error) {
	c, _, err := obs.ReadJSONL(r)
	if err == nil && c == nil {
		err = fmt.Errorf("offloadsim: a service-span JSONL export, not a simulation trace")
	}
	return c, err
}

// WriteSeriesCSV writes an interval time-series as CSV.
func WriteSeriesCSV(w io.Writer, series []TraceIntervalPoint) error {
	return telemetry.WriteSeriesCSV(w, series)
}

// SeriesFileName is the canonical per-point file name for a sweep's
// interval time-series CSVs. A sweep with an os_cores column passes the
// point's OS-core count, which the name then ends with; osCores 0
// leaves it out.
func SeriesFileName(workload, policy string, threshold, oneWay, osCores int) string {
	name := fmt.Sprintf("%s_%s_n%d_lat%d", workload, policy, threshold, oneWay)
	if osCores > 0 {
		name += fmt.Sprintf("_k%d", osCores)
	}
	return name + ".csv"
}

// SweepRequest is the wire form of offsimd's POST /v1/sweeps: a
// Figure-4-style parameter grid (workloads × policies × thresholds ×
// latencies) the fleet decomposes into canonical-keyed jobs and
// computes exactly once across replicas (docs/CLUSTER.md). Field
// semantics mirror cmd/sweep.
type SweepRequest = cluster.SweepRequest

// SweepRow is one streamed sweep result row, field-for-field identical
// to cmd/sweep's export rows.
type SweepRow = cluster.Row

// SweepPointResult is one NDJSON line of a streaming sweep response:
// grid coordinates, terminal status, and the row on success.
type SweepPointResult = cluster.PointResult

// SweepProgress is GET /v1/sweeps/{id}: a sweep's live accounting.
type SweepProgress = cluster.Progress

// Workloads returns all modeled benchmark profiles: apache, specjbb and
// derby (servers), plus the six-member compute group.
func Workloads() []*Workload { return workloads.All() }

// ServerWorkloads returns the three OS-intensive server profiles.
func ServerWorkloads() []*Workload { return workloads.ServerSet() }

// ComputeWorkloads returns the six compute-bound profiles.
func ComputeWorkloads() []*Workload { return workloads.ComputeSet() }

// WorkloadByName resolves a profile by name ("apache", "specjbb",
// "derby", "blackscholes", "canneal", "fasta_protein", "mummer", "mcf",
// "hmmer").
func WorkloadByName(name string) (*Workload, bool) { return workloads.ByName(name) }

// WorkloadNames lists the available profile names, sorted.
func WorkloadNames() []string { return workloads.Names() }

// ExperimentOptions scales the paper-reproduction runners.
type ExperimentOptions = experiments.Options

// DefaultExperimentOptions returns the standard experiment scale; use
// QuickExperimentOptions for smoke runs.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions returns a reduced scale for fast iteration.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// EnergyModel parameterizes the optional energy extension (the paper's
// stated future work): per-core active/idle power on an asymmetric CMP
// plus a per-migration charge.
type EnergyModel = energy.Model

// EnergyReport is the evaluated outcome: joules, seconds, average watts
// and the energy-delay product.
type EnergyReport = energy.Report

// DefaultEnergyModel returns the reference asymmetric-CMP power model
// (8 W user core, 2.5 W OS core, ~10% idle floors, 3.5 GHz).
func DefaultEnergyModel() EnergyModel { return energy.Default() }

// Energy evaluates a run's energy under m, using the cycle accounting the
// simulator recorded (user-core idle during migrations, OS-core busy
// time, migration count).
func Energy(r Result, m EnergyModel) (EnergyReport, error) {
	return m.Evaluate(energy.Activity{
		ElapsedCycles:  r.Cycles,
		UserCores:      r.UserCores,
		UserIdleCycles: r.UserIdleCycles,
		OSBusyCycles:   r.OSBusyCycles,
		HasOSCore:      r.HasOSCore,
		Migrations:     r.Offloads,
	})
}

// CPUConfig sizes a core's front end (L1 caches, fetch width); assign one
// to Config.OSCPU to model the asymmetric-CMP OS core of Mogul et al.
type CPUConfig = cpu.Config

// DefaultCPUConfig returns the Table II core front end (32 KB 2-way L1s).
func DefaultCPUConfig() CPUConfig { return cpu.DefaultConfig() }

// CoherenceProtocol selects MESI (the paper's baseline) or MOESI for
// Config.Coherence.Protocol.
type CoherenceProtocol = coherence.Protocol

// Protocol constants.
const (
	MESI  = coherence.MESI
	MOESI = coherence.MOESI
)

// DefaultCoherenceConfig returns the Table II memory system (private 1 MB
// L2s, directory MESI, 350-cycle memory).
func DefaultCoherenceConfig() coherence.Config { return coherence.DefaultConfig() }
