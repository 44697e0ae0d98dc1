// Package sim assembles the full simulated system: user cores running
// workload traces, an optional dedicated OS core, the coherent memory
// hierarchy, an off-loading policy per user core, the migration engine and
// the dynamic threshold tuner. It reproduces the paper's experimental
// setup (§IV): the baseline executes everything on a single core with one
// private L2; off-loading configurations add an OS core with its own L2,
// kept coherent by the directory protocol.
//
// The simulation is discrete-event at segment granularity: user cores
// advance local clocks segment by segment, scheduled in clock order, and
// off-loaded invocations serialize through the OS core's reservation
// queue (so OS-core contention and queuing delay emerge naturally, §V-C).
package sim

import (
	"fmt"

	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/cpu"
	"offloadsim/internal/migration"
	"offloadsim/internal/oscore"
	"offloadsim/internal/policy"
	"offloadsim/internal/rng"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/trace"
	"offloadsim/internal/workloads"
)

// Config describes one simulation run.
type Config struct {
	// Workload is the benchmark profile every user core runs.
	Workload *workloads.Profile
	// Workloads optionally assigns a distinct profile to each user core
	// (consolidated-server scenarios, §I's motivation); when set, its
	// length must equal UserCores and it overrides Workload.
	Workloads []*workloads.Profile
	// PhaseProfiles, when non-empty, makes every user core alternate
	// between these profiles and its base profile every PhaseInstrs
	// instructions — the program-phase behaviour the §III-B tuner must
	// re-adapt to.
	PhaseProfiles []*workloads.Profile
	// PhaseInstrs is the phase length in instructions (required when
	// PhaseProfiles is set).
	PhaseInstrs uint64
	// Policy selects the off-loading decision mechanism.
	Policy policy.Kind
	// Overheads are the per-entry decision costs.
	Overheads policy.Overheads
	// Threshold is the static off-load threshold N in instructions
	// (predictor-based policies only).
	Threshold int
	// DynamicN enables the §III-B epoch tuner, which overrides
	// Threshold after the first epoch.
	DynamicN bool
	// Tuner parameterizes the dynamic tuner when DynamicN is set.
	Tuner core.TunerConfig
	// Migration is the off-load transport.
	Migration migration.Engine
	// UserCores is the number of user cores sharing the one OS core.
	UserCores int
	// OSCoreSlots is the OS core's hardware context count: 1 (default)
	// is the paper's non-SMT core; >1 models the SMT extension §V-C
	// suggests for serving multiple user cores.
	OSCoreSlots int
	// InstrumentOnly charges decision overhead but suppresses all
	// migrations — the Figure 1 configuration that isolates software
	// instrumentation cost.
	InstrumentOnly bool
	// DirectMappedPredictor selects the 1500-entry tag-less predictor
	// organization instead of the 200-entry CAM.
	DirectMappedPredictor bool
	// ColdPredictor disables profile-priming of DI/HI predictor tables.
	// By default tables start primed with each syscall class's nominal
	// length — the counterpart of the offline profiling SI is granted,
	// and the state the hardware converges to within the first tens of
	// millions of instructions of a paper-scale run. Our measurement
	// windows are ~1000x shorter, so an unprimed rare-class first
	// encounter (one execve mispredicted onto the user core) would
	// otherwise dominate an entire run.
	ColdPredictor bool

	// WarmupInstrs and MeasureInstrs are per-user-core instruction
	// budgets; statistics reset after warmup.
	WarmupInstrs  uint64
	MeasureInstrs uint64

	// Sampling, when enabled, replaces full detailed execution with
	// interval sampling plus functional warming (see interval.go and
	// Run, which merges Replicas). Disabled by default; zero-valued
	// knobs of an enabled block take the documented defaults.
	Sampling Sampling

	// Parallel, when enabled, runs detailed execution with the
	// quantum-synchronized parallel engine (see parallel.go and
	// docs/PARALLEL.md). Composes with Sampling: detailed intervals run
	// in parallel while warming stays cheap. Disabled by default;
	// zero-valued knobs of an enabled block take the documented
	// defaults.
	Parallel Parallel

	// OSCores, when enabled, generalizes the single OS core into a
	// cluster of K OS cores with per-syscall-class affinity routing,
	// asymmetric core speeds and optional asynchronous dispatch (see
	// internal/oscore and docs/OSCORES.md). Disabled by default, which
	// runs a one-core cluster; an enabled K=1 synchronous block
	// describes that same cluster and canonicalizes back to disabled.
	OSCores OSCores

	// Seed drives all stochastic behaviour.
	Seed uint64

	// CPU and Coherence configure the hardware substrate; zero values
	// take the Table II defaults.
	CPU       cpu.Config
	Coherence coherence.Config
	// OSCPU, when non-nil, configures the OS core's front end separately
	// from the user cores — the asymmetric-CMP design of Mogul et al.
	// (§VI-B): OS execution tolerates a simpler, lower-power core, e.g.
	// with smaller L1s.
	OSCPU *cpu.Config
}

// DefaultConfig returns a single-user-core Table II configuration running
// the hardware policy at N=1000 over the aggressive migration engine.
func DefaultConfig(prof *workloads.Profile) Config {
	return Config{
		Workload:      prof,
		Policy:        policy.HardwarePredictor,
		Overheads:     policy.DefaultOverheads(),
		Threshold:     1000,
		Migration:     migration.Aggressive(),
		UserCores:     1,
		WarmupInstrs:  300_000,
		MeasureInstrs: 1_000_000,
		Seed:          1,
		CPU:           cpu.DefaultConfig(),
		Coherence:     coherence.DefaultConfig(),
	}
}

// offloadCapable reports whether the configuration includes an OS core.
func (c *Config) offloadCapable() bool {
	return c.Policy != policy.Baseline
}

// profileFor returns the profile user core i runs.
func (c *Config) profileFor(i int) *workloads.Profile {
	if len(c.Workloads) > 0 {
		return c.Workloads[i]
	}
	return c.Workload
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if len(c.Workloads) > 0 {
		if len(c.Workloads) != c.UserCores {
			return fmt.Errorf("sim: %d per-core workloads for %d cores", len(c.Workloads), c.UserCores)
		}
		for i, p := range c.Workloads {
			if p == nil {
				return fmt.Errorf("sim: nil workload for core %d", i)
			}
			if err := p.Validate(); err != nil {
				return err
			}
		}
	} else {
		if c.Workload == nil {
			return fmt.Errorf("sim: nil workload")
		}
		if err := c.Workload.Validate(); err != nil {
			return err
		}
	}
	if c.OSCoreSlots < 0 {
		return fmt.Errorf("sim: negative OSCoreSlots")
	}
	if len(c.PhaseProfiles) > 0 {
		if c.PhaseInstrs == 0 {
			return fmt.Errorf("sim: PhaseProfiles set without PhaseInstrs")
		}
		for i, p := range c.PhaseProfiles {
			if p == nil {
				return fmt.Errorf("sim: nil phase profile %d", i)
			}
			if err := p.Validate(); err != nil {
				return err
			}
		}
	}
	if err := c.Overheads.Validate(); err != nil {
		return err
	}
	if err := c.Migration.Validate(); err != nil {
		return err
	}
	if c.UserCores < 1 {
		return fmt.Errorf("sim: UserCores %d < 1", c.UserCores)
	}
	if c.MeasureInstrs == 0 {
		return fmt.Errorf("sim: MeasureInstrs must be positive")
	}
	if c.Threshold < 0 {
		return fmt.Errorf("sim: negative threshold")
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.OSCPU != nil {
		if err := c.OSCPU.Validate(); err != nil {
			return err
		}
	}
	if c.DynamicN {
		if err := c.Tuner.Validate(); err != nil {
			return err
		}
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	// The §III-B tuner adapts on per-epoch feedback; functional warming
	// changes what it would observe between measured windows, so the
	// combination has no well-defined semantics.
	if c.Sampling.Enabled && c.DynamicN {
		return fmt.Errorf("sim: Sampling cannot be combined with DynamicN")
	}
	if err := c.Parallel.Validate(); err != nil {
		return err
	}
	// The tuner's epoch feedback reads cross-core state (pooled hit
	// rates, the shared clock horizon) mid-run; under relaxed quantum
	// synchronization that feedback is stale by up to a quantum per
	// core, so the adapted thresholds would depend on the quantum. Keep
	// the combination rejected rather than silently approximate.
	if c.Parallel.Enabled && c.DynamicN {
		return fmt.Errorf("sim: Parallel cannot be combined with DynamicN")
	}
	if err := c.OSCores.Validate(); err != nil {
		return err
	}
	// Every user and OS core is one coherence node. k <= MaxOSCores here,
	// so the subtraction cannot overflow where a sum of cores could.
	d := *c
	d.OSCores = d.OSCores.withDefaults()
	if k := d.clusterK(); c.UserCores > coherence.MaxNodes-k {
		return fmt.Errorf("sim: %d user + %d OS cores exceed %d coherence nodes",
			c.UserCores, k, coherence.MaxNodes)
	}
	// The parallel engine's quantum barriers reconcile the reservations
	// of the cluster's first queue only; multi-queue routing, speed
	// scaling and async return slots would need their own cross-quantum
	// reconciliation discipline. Reject the combination rather than
	// silently approximate it. (A block that collapses to the default —
	// K=1, synchronous, symmetric — is the same config as no block and
	// composes fine.)
	if c.OSCores.withDefaults().Enabled && c.Parallel.Enabled {
		return fmt.Errorf("sim: Parallel cannot be combined with OSCores")
	}
	return nil
}

// userCtx is the per-user-core simulation state.
type userCtx struct {
	core *cpu.Core
	gen  trace.Source
	pol  policy.Policy
	tun  *core.Tuner

	clock         uint64
	retired       uint64 // workload instructions retired (incl. off-loaded)
	osInstrs      uint64 // privileged instructions retired (subset of retired)
	retiredAtMeas uint64 // retired at measurement start

	// epoch bookkeeping for the dynamic tuner
	epochRetired uint64
	epochTarget  uint64
	snapClock    uint64
	snapRetired  uint64

	// tuningEnabled gates the epoch machinery: the tuner only samples
	// once warmup ends, so cold-cache transients cannot masquerade as
	// threshold quality.
	tuningEnabled bool

	// seg is the in-flight segment, reused across steps so handing the
	// policy and cores a pointer never forces a heap escape.
	seg trace.Segment

	// idx is the core's telemetry ring and async return-slot index. Only
	// AttachTelemetry sets it, so on an untraced run every core's idx is
	// 0 and an async cluster run books all cores' returns in core 0's
	// slots. That defect is pinned, not fixed: the four
	// *_oscore4_async_detailed golden cells and the multicore
	// 4c-k4-async bench digest depend on it, and setting idx in New
	// means regenerating both (ROADMAP, async return-slot index).
	// Per-core state of the parallel engine is keyed by core.ID()
	// instead.
	//
	// trc is the attached tracer (nil when telemetry is off — every
	// tracer method is nil-safe, and step additionally guards its
	// emission blocks on it).
	idx int
	trc *telemetry.Tracer
}

// Simulator is one configured system ready to run.
type Simulator struct {
	cfg    Config
	sys    *coherence.System
	users  []*userCtx
	osNode int

	// OS-side state of an off-load-capable simulator (nil otherwise):
	// the K OS cores at nodes osNode..osNode+K-1 and their routing and
	// queueing runtime. Without a Config.OSCores block K is 1 — the
	// paper's single dedicated OS core.
	osCores []*cpu.Core
	osc     *oscore.Cluster

	// par is the parallel engine's runtime state (ports, event buffers,
	// worker count), built by New when Config.Parallel is enabled; nil
	// on the serial engine.
	par *parRuntime

	// trc is the attached telemetry tracer; nil when telemetry is off
	// (see AttachTelemetry in telemetry.go).
	trc *telemetry.Tracer

	// measureStart is the probe taken when measurement starts: the
	// first end of every measured window (interval.go).
	measureStart intervalProbe
}

// New builds a simulator from cfg. A sampled config builds one replica:
// New rejects Sampling.Replicas > 1, which only Run can merge.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sampling.Enabled && cfg.Sampling.Replicas > 1 {
		return nil, fmt.Errorf("sim: New builds one sampled replica, not %d; sim.Run runs and merges replicas",
			cfg.Sampling.Replicas)
	}
	if cfg.CPU.IFetchInterval == 0 {
		cfg.CPU = cpu.DefaultConfig()
	}
	if cfg.Coherence.NumNodes == 0 {
		cfg.Coherence = coherence.DefaultConfig()
	}
	cfg.Sampling = cfg.Sampling.withDefaults()
	cfg.Parallel = cfg.Parallel.withDefaults()
	cfg.OSCores = cfg.OSCores.withDefaults()
	nodes := cfg.UserCores + cfg.clusterK()
	cfg.Coherence.NumNodes = nodes

	root := rng.New(cfg.Seed)
	// The first fork feeds nothing. It is still drawn so the streams
	// forked below, and so every result the golden corpus pins, stay put.
	root.Fork()
	sys, err := coherence.New(cfg.Coherence)
	if err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, sys: sys, osNode: cfg.UserCores}

	space := &trace.AddressSpace{}
	kernel := trace.NewKernelLayout(space, root.Fork())

	for i := 0; i < cfg.UserCores; i++ {
		c, err := cpu.New(i, i, cfg.CPU, sys)
		if err != nil {
			return nil, err
		}
		prof := cfg.profileFor(i)
		base, err := trace.NewGenerator(prof, i, kernel, space, root.Fork())
		if err != nil {
			return nil, err
		}
		var gen trace.Source = base
		if len(cfg.PhaseProfiles) > 0 {
			gens := []*trace.Generator{base}
			for _, pp := range cfg.PhaseProfiles {
				pg, err := trace.NewGenerator(pp, i, kernel, space, root.Fork())
				if err != nil {
					return nil, err
				}
				gens = append(gens, pg)
			}
			gen = trace.NewPhased(gens, cfg.PhaseInstrs)
		}
		pol, err := policy.New(cfg.Policy, cfg.Migration.OneWay, cfg.Threshold, cfg.Overheads, cfg.DirectMappedPredictor)
		if err != nil {
			return nil, err
		}
		if !cfg.ColdPredictor {
			prewarmPolicy(pol, prof)
			for _, pp := range cfg.PhaseProfiles {
				prewarmPolicy(pol, pp)
			}
		}
		ctx := &userCtx{core: c, gen: gen, pol: pol}
		if cfg.DynamicN && supportsThreshold(cfg.Policy) {
			tun, err := core.NewTuner(cfg.Tuner, prof.ExpectedOSShare())
			if err != nil {
				return nil, err
			}
			ctx.tun = tun
			ctx.epochTarget = tun.EpochLength()
			pol.SetThreshold(tun.Threshold())
			ctx.snapshotEpoch()
		}
		s.users = append(s.users, ctx)
	}
	if k := cfg.clusterK(); k > 0 {
		osCPU := cfg.CPU
		if cfg.OSCPU != nil {
			osCPU = *cfg.OSCPU
		}
		// K OS cores at consecutive nodes, each with its own private
		// hierarchy, sharing one routing fabric. Both strings passed
		// Validate, so they must parse.
		aff, err := oscore.ParseAffinity(cfg.OSCores.Affinity, k)
		if err != nil {
			return nil, err
		}
		speeds, err := oscore.ParseAsymmetry(cfg.OSCores.Asymmetry, k)
		if err != nil {
			return nil, err
		}
		for q := 0; q < k; q++ {
			oc, err := cpu.New(s.osNode+q, s.osNode+q, osCPU, sys)
			if err != nil {
				return nil, err
			}
			s.osCores = append(s.osCores, oc)
		}
		s.osc = oscore.NewCluster(k, cfg.OSCoreSlots, aff, speeds,
			cfg.OSCores.Rebalance, cfg.OSCores.AsyncSlots, cfg.UserCores)
	}
	if cfg.Parallel.Enabled {
		s.par = s.newParRuntime()
	}
	return s, nil
}

// MustNew panics on configuration errors.
func MustNew(cfg Config) *Simulator {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// prewarmPolicy primes a predictor-based policy's table with the nominal
// run length of every (syscall, argument class) pair in the workload's
// mix. Two updates raise the entry confidence above the global-fallback
// gate.
func prewarmPolicy(pol policy.Policy, prof *workloads.Profile) {
	eng := policy.Engine(pol)
	if eng == nil {
		return
	}
	pred := eng.Predictor()
	for _, m := range prof.Mix {
		spec := syscalls.Lookup(m.ID)
		for c := 0; c < spec.ArgClasses; c++ {
			astate := trace.SyscallAState(m.ID, c)
			pred.Update(astate, spec.Length(c))
			pred.Update(astate, spec.Length(c))
		}
	}
}

func supportsThreshold(k policy.Kind) bool {
	return k == policy.DynamicInstrumentation || k == policy.HardwarePredictor || k == policy.Oracle
}

// snapshotEpoch records the state the epoch feedback is measured against.
func (u *userCtx) snapshotEpoch() {
	u.snapClock = u.clock
	u.snapRetired = u.retired
}

// epochFeedback returns the core's throughput (workload instructions per
// elapsed cycle, migrations and queuing included) over the epoch. §III-B
// proposes the pooled user+OS L2 hit rate as the feedback counter; in
// this memory model that signal is anti-correlated with throughput (an
// idle OS core contributes no misses, so high thresholds always look
// "better"), so the sampler is fed epoch IPC instead — an equally
// available hardware counter. The sampling framework is unchanged; the
// substitution is recorded in DESIGN.md.
func (u *userCtx) epochFeedback() float64 {
	cycles := u.clock - u.snapClock
	if cycles == 0 {
		return 0
	}
	return float64(u.retired-u.snapRetired) / float64(cycles)
}

// step advances one user core by one segment, on either engine. The two
// differ only in where an off-load goes: the serial engine books it on
// the OS-core cluster now (clusterOffload); the parallel engine, whose
// quantum workers share no cluster state, prices it from the quantum
// snapshot and logs it for the barrier (deferOffload). Validate rejects
// Parallel with an enabled OSCores block, so the Async and DepthN
// branches below never run on a quantum worker.
func (s *Simulator) step(u *userCtx) {
	u.seg = u.gen.Next()
	seg := &u.seg
	if s.par != nil {
		// Memory events this segment logs carry its start time.
		s.par.ports[u.core.ID()].SetTime(u.clock)
	}
	if !seg.IsOS() {
		cycles := u.core.RunSegment(seg)
		u.clock += cycles
		u.advance(seg)
		return
	}

	entry := u.clock
	// Queue-depth-aware dynamic N (Config.OSCores.DepthN): raise the
	// effective threshold by DepthN per busy context on the designated
	// queue, so a backlogged OS core only receives work long enough to
	// amortize the extra wait. The base threshold is restored right after
	// the decision — the modulation is per-invocation, and composes with
	// the epoch tuner (which retunes the base).
	depthBase, depthMod := 0, false
	if s.osc != nil && s.cfg.OSCores.DepthN > 0 && supportsThreshold(s.cfg.Policy) {
		depthBase = u.pol.Threshold()
		des := s.osc.Designated(syscalls.CategoryOf(seg.Sys))
		u.pol.SetThreshold(depthBase + s.cfg.OSCores.DepthN*s.osc.Backlog(des, u.clock))
		depthMod = true
	}
	d := u.pol.Decide(seg)
	if depthMod {
		u.pol.SetThreshold(depthBase)
	}
	if u.trc != nil {
		// On the parallel engine the clock is the quantum's own estimated
		// timeline, so emission is deterministic at any Workers setting.
		u.emitDecide(entry, seg, d)
	}
	if d.Overhead > 0 {
		u.core.Stall(uint64(d.Overhead))
		u.clock += uint64(d.Overhead)
	}

	if d.Offload && !s.cfg.InstrumentOnly && s.osc != nil {
		if s.par != nil {
			s.deferOffload(u, seg)
		} else {
			s.clusterOffload(u, seg)
		}
	} else {
		// A locally executed OS segment is still an OS boundary: any
		// outstanding fire-and-forget returns reconcile before the core
		// re-enters privileged mode. Only async dispatch leaves returns
		// pending.
		if s.osc != nil && s.cfg.OSCores.Async {
			s.drainAsync(u)
		}
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

// advance updates retirement and epoch bookkeeping after a segment.
func (u *userCtx) advance(seg *trace.Segment) {
	u.retired += uint64(seg.Instrs)
	if seg.IsOS() {
		u.osInstrs += uint64(seg.Instrs)
	}
	if u.tun == nil || !u.tuningEnabled {
		return
	}
	u.epochRetired += uint64(seg.Instrs)
	if u.epochRetired < u.epochTarget {
		return
	}
	u.epochRetired = 0
	// Feed the epoch's hit rate back; the tuner may change N.
	u.tun.ReportEpoch(u.epochFeedback())
	u.pol.SetThreshold(u.tun.Threshold())
	u.epochTarget = u.tun.EpochLength()
	u.snapshotEpoch()
	if u.trc != nil {
		u.trc.Emit(u.idx, telemetry.Event{
			Time: u.clock, Kind: telemetry.KindRetune,
			Sys: -1, Value: int64(u.tun.Threshold()),
		})
	}
}

// Run executes warmup plus measurement and returns the results. A
// sampled config (Config.Sampling) runs as intervals and extrapolates
// its detailed ones (interval.go); otherwise warmup runs until every
// user core has retired WarmupInstrs, then measurement runs in full.
func (s *Simulator) Run() Result {
	if s.cfg.Sampling.Enabled {
		return s.collectSampled(s.runIntervals())
	}
	if s.cfg.WarmupInstrs > 0 {
		s.runUntil(func(u *userCtx) bool { return u.retired >= s.cfg.WarmupInstrs })
	}
	s.resetAfterWarmup()

	// Measurement: run until every user core retires MeasureInstrs more.
	// With an interval time-series attached the window is cut into
	// cadence sub-targets — a pure repartition of the same step sequence
	// (see runMeasureWithSeries).
	if s.trc.IntervalInstrs() > 0 {
		s.runMeasureWithSeries()
	} else {
		s.runUntil(func(u *userCtx) bool {
			return u.retired-u.retiredAtMeas >= s.cfg.MeasureInstrs
		})
	}
	return s.collect()
}

// runUntil steps the system in clock order — one segment of the core
// with the smallest clock, or on the parallel engine one quantum of
// every core — until every user core satisfies done. Cores that finish
// early keep executing — freezing them
// would skew the per-core clocks and corrupt the shared OS-core timeline
// (a fast compute tenant would appear to submit requests millions of
// cycles "in the past" of a slow server tenant). Throughput is a ratio,
// so the extra segments do not bias per-core results.
func (s *Simulator) runUntil(done func(*userCtx) bool) {
	for !s.allDone(done) {
		if s.par != nil {
			s.runQuantum()
		} else {
			s.step(s.minClock())
		}
	}
}

// allDone reports whether every user core satisfies done. The parallel
// engine checks it only at barriers, where the shared state is
// consistent.
func (s *Simulator) allDone(done func(*userCtx) bool) bool {
	for _, u := range s.users {
		if !done(u) {
			return false
		}
	}
	return true
}

// minClock returns the user core with the smallest local clock.
func (s *Simulator) minClock() *userCtx {
	best := s.users[0]
	for _, u := range s.users[1:] {
		if u.clock < best.clock {
			best = u
		}
	}
	return best
}

func (s *Simulator) resetAfterWarmup() {
	s.sys.ResetStats()
	for _, u := range s.users {
		u.core.ResetStats()
		u.retiredAtMeas = u.retired
		// Policy decision stats restart; predictor training persists,
		// as warmed hardware state should.
		*u.pol.Stats() = policy.Stats{}
		if eng := policy.Engine(u.pol); eng != nil {
			eng.ResetBooks()
		}
		if u.tun != nil {
			u.tuningEnabled = true
			u.epochRetired = 0
			u.snapshotEpoch()
		}
	}
	for _, oc := range s.osCores {
		oc.ResetStats()
	}
	if s.osc != nil {
		s.osc.ResetStats()
	}
	s.measureStart = s.probe()
	// Telemetry captures describe exactly the measurement window.
	s.trc.Arm()
}
