package trace

import (
	"offloadsim/internal/isa"
	"offloadsim/internal/rng"
	"offloadsim/internal/stats"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/workloads"
)

// Per-segment-kind memory intensities. User intensity comes from the
// profile; kernel paths are more memory-intensive than typical user code,
// and the register-window handlers are almost pure memory traffic (16
// registers moved per trap).
const (
	osMemRatio    = 0.36
	trapMemRatio  = 0.95
	tlbMemRatio   = 0.45
	kernelWrFrac  = 0.15
	sharedWrFrac  = 0.50
	commonCodePct = 0.20 // fraction of syscall ifetches in the common path
)

// GenStats counts what the generator has produced; the privileged share
// it exposes feeds the tuner's startup heuristic and the calibration
// tests.
type GenStats struct {
	UserInstrs stats.Counter
	OSInstrs   stats.Counter
	Syscalls   stats.Counter
	Traps      stats.Counter
	Interrupts stats.Counter
}

// PrivFraction returns the fraction of generated instructions executed in
// privileged mode.
func (g *GenStats) PrivFraction() float64 {
	return stats.Ratio(g.OSInstrs.Value(), g.OSInstrs.Value()+g.UserInstrs.Value())
}

// Generator produces the segment stream of one simulated core running one
// workload profile. Every stochastic choice comes from the generator's
// private stream, so streams for different cores are independent and the
// whole trace is reproducible from the top-level seed.
type Generator struct {
	prof   *workloads.Profile
	coreID int
	regs   *isa.RegFile
	src    *rng.Source
	// mix seeds one private per-reference stream per segment (one Fork
	// per segment, a constant single draw). All data/ifetch randomness
	// of a segment comes from its own fork, so executing more or fewer
	// references — functional warming performs only a strided subset —
	// can never desynchronize any other segment's addresses or the
	// segment-parameter stream. Segment sequences and per-segment
	// reference streams are therefore identical across execution modes
	// and policies for a given seed, which is what lets sampled and
	// detailed runs (and baseline/off-load pairs) be compared as
	// common-random-number pairs.
	mix *rng.Source

	userCode *Region
	userData *Region
	shared   *Region
	kernel   *KernelLayout

	sampler *rng.Categorical
	ids     []syscalls.ID

	trapCtx [][3]uint64 // distinct (g1,i0,i1) user contexts at trap time

	// queue holds the traps + syscall pending after the current user
	// burst, consumed ring-style: qhead advances instead of re-slicing,
	// and the storage is reset and reused once drained, so steady-state
	// generation never reallocates it.
	queue []Segment
	qhead int

	callDepth int
	callDown  rng.Chance // a call goes one window deeper (CallDepthBias)
	interrupt rng.Chance // an interruptible syscall is interrupted (InterruptRate)
	burstP    float64

	Stats GenStats
}

// NewGenerator builds a generator for core coreID running prof. The
// kernel layout is shared across generators; user regions are private and
// carved from space.
func NewGenerator(prof *workloads.Profile, coreID int, kernel *KernelLayout, space *AddressSpace, src *rng.Source) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	// Take one src draw per region, in carving order, as
	// NewKernelLayout does: src goes on to drive every segment
	// parameter, so the draws taken here fix the whole segment sequence.
	region := func(lines int, hotFrac, zipfS float64) *Region {
		src.ForkVal()
		return NewRegion(space, lines, hotFrac, zipfS)
	}
	g := &Generator{
		prof:      prof,
		coreID:    coreID,
		regs:      isa.NewRegFile(),
		src:       src,
		mix:       src.Fork(),
		kernel:    kernel,
		userCode:  region(prof.UserCodeLines, prof.HotFrac, prof.ZipfS),
		userData:  region(prof.UserDataLines, prof.HotFrac, prof.ZipfS),
		shared:    region(prof.SharedLines, 0.8, 0.9),
		callDown:  rng.NewChance(prof.CallDepthBias),
		interrupt: rng.NewChance(prof.InterruptRate),
	}
	weights := make([]float64, len(prof.Mix))
	for i, m := range prof.Mix {
		weights[i] = m.Weight
		g.ids = append(g.ids, m.ID)
	}
	var err error
	g.sampler, err = rng.NewCategorical(src.Fork(), weights)
	if err != nil {
		return nil, err
	}
	// Fixed pool of user register contexts observed at trap time. The
	// pool size scales with the thread count per core (each thread
	// contributes its own live contexts).
	n := prof.TrapContexts * prof.ThreadsPerCore
	ctxSrc := src.Fork()
	for i := 0; i < n; i++ {
		g.trapCtx = append(g.trapCtx, [3]uint64{
			ctxSrc.Uint64(), ctxSrc.Uint64(), ctxSrc.Uint64(),
		})
	}
	// Geometric parameter for burst lengths above the floor.
	mean := float64(prof.UserBurstMean - prof.UserBurstMin)
	if mean < 1 {
		mean = 1
	}
	g.burstP = 1 / (mean + 1)
	return g, nil
}

// MustNewGenerator panics on profile errors (test/benchmark convenience).
func MustNewGenerator(prof *workloads.Profile, coreID int, kernel *KernelLayout, space *AddressSpace, src *rng.Source) *Generator {
	g, err := NewGenerator(prof, coreID, kernel, space, src)
	if err != nil {
		panic(err)
	}
	return g
}

// Profile returns the generator's workload profile.
func (g *Generator) Profile() *workloads.Profile { return g.prof }

// CoreID returns the owning core's id.
func (g *Generator) CoreID() int { return g.coreID }

// UserData exposes the private user data region (tests).
func (g *Generator) UserData() *Region { return g.userData }

// Shared exposes the user/OS shared buffer region (tests).
func (g *Generator) Shared() *Region { return g.shared }

// Next produces the next segment of the stream. The stream alternates
// user bursts with the OS activity they trigger: zero or more short traps
// followed by one system call.
func (g *Generator) Next() Segment {
	if g.qhead < len(g.queue) {
		seg := g.queue[g.qhead]
		g.qhead++
		return seg
	}
	g.queue = g.queue[:0]
	g.qhead = 0
	burst := g.prof.UserBurstMin + g.src.Geometric(g.burstP)
	user := g.userSegment(burst)

	// Queue the traps the burst triggers, then the syscall ending it.
	spills, fills := g.windowTraps(burst)
	for i := 0; i < spills; i++ {
		g.queue = append(g.queue, g.trapSegment(syscalls.SpillTrap))
	}
	for i := 0; i < fills; i++ {
		g.queue = append(g.queue, g.trapSegment(syscalls.FillTrap))
	}
	for i := g.countFromRate(float64(burst) * g.prof.TLBMissPer1K / 1000); i > 0; i-- {
		g.queue = append(g.queue, g.trapSegment(syscalls.TLBMiss))
	}
	g.queue = append(g.queue, g.syscallSegment())

	return user
}

// countFromRate converts an expected count into an integer draw.
func (g *Generator) countFromRate(expected float64) int {
	n := int(expected)
	if g.src.Bool(expected - float64(n)) {
		n++
	}
	return n
}

// windowTraps walks the call/return behaviour of one user burst through
// the register-window state machine and returns the spill and fill trap
// counts it produced.
func (g *Generator) windowTraps(burst int) (spills, fills int) {
	calls := burst / g.prof.CallGrain
	for i := 0; i < calls; i++ {
		down := g.callDepth == 0 || g.callDown.DrawFrom(g.src)
		if down {
			g.callDepth++
			if g.regs.Save() == isa.WindowSpill {
				spills++
			}
		} else {
			g.callDepth--
			if g.regs.Restore() == isa.WindowFill {
				fills++
			}
		}
	}
	return spills, fills
}

func (g *Generator) userSegment(instrs int) Segment {
	g.Stats.UserInstrs.Add(uint64(instrs))
	seg := Segment{
		Kind:     UserSegment,
		Instrs:   instrs,
		MemRatio: g.prof.UserMemRatio,
		codeMain: g.userCode,
		src:      g.mix.ForkVal(),
	}
	seg.setSources(
		dataSource{region: g.userData, weight: 1 - g.prof.UserSharedFrac, writeFrac: g.prof.UserWriteFrac},
		dataSource{region: g.shared, weight: g.prof.UserSharedFrac, writeFrac: sharedWrFrac},
	)
	return seg
}

// trapSegment builds a spill/fill/TLB trap invocation. The register
// contents at trap time are whatever the user thread had live, drawn from
// the fixed per-core context pool, so trap AStates form a bounded
// population the predictor can capture.
func (g *Generator) trapSegment(id syscalls.ID) Segment {
	spec := syscalls.Lookup(id)
	ctx := g.trapCtx[g.src.Intn(len(g.trapCtx))]
	// Different trap vectors run with different alternate-global
	// contents, so the same user context hashes differently per trap
	// type; without this, spill/fill/TLB entries would alias in the
	// predictor despite having different run lengths.
	g.regs.G1, g.regs.I0, g.regs.I1 = ctx[0]^(uint64(id)*0xABCD_EF01), ctx[1], ctx[2]
	g.regs.EnterPrivileged(spec.MasksInterrupts)
	astate := g.regs.AState()
	argClass := 0
	if id == syscalls.TLBMiss {
		argClass = g.src.Intn(spec.ArgClasses)
	}
	instrs := spec.SampleLength(argClass, g.src)
	g.regs.ExitPrivileged()

	g.Stats.OSInstrs.Add(uint64(instrs))
	g.Stats.Traps.Inc()

	seg := Segment{
		Kind:          TrapSegment,
		Sys:           id,
		ArgClass:      argClass,
		AState:        astate,
		Instrs:        instrs,
		NominalInstrs: instrs,
		src:           g.mix.ForkVal(),
		codeMain:      g.kernel.SysCode[id],
	}
	switch id {
	case syscalls.SpillTrap:
		// Spills store the window to the user stack: nearly all writes
		// into user memory.
		seg.MemRatio = trapMemRatio
		seg.setSources(
			dataSource{region: g.userData, weight: spec.UserDataFrac, writeFrac: 1.0},
			dataSource{region: g.kernel.SysDataShared(id), weight: 1 - spec.UserDataFrac, writeFrac: kernelWrFrac},
		)
	case syscalls.FillTrap:
		// Fills load the window back: reads from user memory.
		seg.MemRatio = trapMemRatio
		seg.setSources(
			dataSource{region: g.userData, weight: spec.UserDataFrac, writeFrac: 0.0},
			dataSource{region: g.kernel.SysDataShared(id), weight: 1 - spec.UserDataFrac, writeFrac: kernelWrFrac},
		)
	default: // TLB refill: page-table walks in kernel data
		seg.MemRatio = tlbMemRatio
		seg.setSources(
			dataSource{region: g.kernel.SysDataShared(id), weight: 0.9, writeFrac: 0.1},
			dataSource{region: g.userData, weight: 0.1, writeFrac: 0.0},
		)
	}
	return seg
}

// loadSyscallArgs loads regs the way the user-side stub does: syscall
// number in g1, the argument registers encoding the argument class. i1
// carries a per-syscall constant (the reused buffer/descriptor).
func loadSyscallArgs(regs *isa.RegFile, id syscalls.ID, argClass int) {
	regs.SetSyscallArgs(
		0x800+uint64(id),
		uint64(argClass)*0x9E37+uint64(id)*0x1F,
		uint64(id)*0x51D1,
	)
}

// SyscallAState returns the AState hash a syscall invocation of the given
// argument class produces, exactly as the generator computes it. It lets
// hosts prime a predictor from an offline profile — the hardware
// counterpart of the offline profiling the static policy is granted.
func SyscallAState(id syscalls.ID, argClass int) uint64 {
	spec := syscalls.Lookup(id)
	regs := isa.NewRegFile()
	loadSyscallArgs(regs, id, argClass)
	regs.EnterPrivileged(spec.MasksInterrupts)
	return regs.AState()
}

func (g *Generator) syscallSegment() Segment {
	id := g.ids[g.sampler.Draw()]
	spec := syscalls.Lookup(id)
	argClass := g.src.Intn(spec.ArgClasses)

	loadSyscallArgs(g.regs, id, argClass)
	g.regs.EnterPrivileged(spec.MasksInterrupts)
	astate := g.regs.AState()

	nominal := spec.SampleLength(argClass, g.src)
	instrs := nominal
	interrupted := false
	if !spec.MasksInterrupts && g.regs.InterruptsEnabled() && g.interrupt.DrawFrom(g.src) {
		// An external interrupt preempts the invocation and extends the
		// privileged sequence (§III-A): geometric extension around the
		// profile's mean.
		ext := 1 + g.src.Geometric(1/float64(g.prof.InterruptMeanLen))
		instrs += ext
		interrupted = true
		g.Stats.Interrupts.Inc()
	}
	g.regs.ExitPrivileged()

	g.Stats.OSInstrs.Add(uint64(instrs))
	g.Stats.Syscalls.Inc()

	seg := Segment{
		Kind:          SyscallSegment,
		Sys:           id,
		ArgClass:      argClass,
		AState:        astate,
		Instrs:        instrs,
		NominalInstrs: nominal,
		Interrupted:   interrupted,
		MemRatio:      osMemRatio,
		codeMain:      g.kernel.SysCode[id],
		codeAlt:       g.kernel.CommonCode,
		codeAltChance: rng.NewChance(commonCodePct),
		src:           g.mix.ForkVal(),
	}
	extFrac := 0.0
	if interrupted {
		extFrac = float64(instrs-nominal) / float64(instrs)
		// Interrupt handler instructions fetch from IRQ code.
		seg.codeAlt = g.kernel.IRQCode
		seg.codeAltChance = rng.NewChance(commonCodePct + extFrac*(1-commonCodePct))
	}
	kernelShare := 1 - spec.UserDataFrac
	seg.setSources(
		dataSource{region: g.kernel.SysDataClass(id, argClass), weight: (1 - extFrac) * kernelShare * 0.6, writeFrac: kernelWrFrac},
		dataSource{region: g.kernel.SysDataShared(id), weight: (1 - extFrac) * kernelShare * 0.2, writeFrac: kernelWrFrac},
		dataSource{region: g.kernel.CommonData, weight: (1 - extFrac) * kernelShare * 0.2, writeFrac: kernelWrFrac},
		dataSource{region: g.shared, weight: (1 - extFrac) * spec.UserDataFrac, writeFrac: sharedWrFrac},
		dataSource{region: g.kernel.IRQData, weight: extFrac, writeFrac: kernelWrFrac},
	)
	return seg
}
