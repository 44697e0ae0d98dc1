// Package cpu models the in-order cores of the simulated CMP (§IV: Simics
// with in-order UltraSPARC cores; the paper argues in-order multi-threaded
// cores are the realistic substrate for OS-intensive server work, citing
// Niagara/Rock/Atom).
//
// A Core charges one cycle per instruction plus memory stalls: instruction
// fetches and data references run through private L1 I/D arrays backed by
// the coherent L2 system, and every L1 miss stalls the core for the full
// hierarchy latency — the blocking behaviour of a single-issue in-order
// pipeline. Inclusion between L1s and the private L2 is maintained through
// the coherence system's back-invalidation hooks.
package cpu

import (
	"fmt"
	"math"

	"offloadsim/internal/cache"
	"offloadsim/internal/coherence"
	"offloadsim/internal/stats"
	"offloadsim/internal/trace"
)

// Config sizes a core's private L1s. Table II: 32 KB 2-way I and D, 1
// cycle, 64 B lines. The 1-cycle L1 hit is folded into the base CPI, so
// only misses add stall cycles.
type Config struct {
	L1I cache.Config
	L1D cache.Config
	// IFetchInterval is the instruction count per I-cache line fetch:
	// 64 B line / 4 B fixed-width SPARC instructions = 16.
	IFetchInterval int
}

// DefaultConfig returns the Table II core front end.
func DefaultConfig() Config {
	return Config{
		L1I: cache.Config{
			Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, HitLatency: 1,
		},
		L1D: cache.Config{
			Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, HitLatency: 1,
		},
		IFetchInterval: 16,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.L1I.Validate(); err != nil {
		return err
	}
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if c.IFetchInterval < 1 {
		return fmt.Errorf("cpu: IFetchInterval %d < 1", c.IFetchInterval)
	}
	return nil
}

// Counters aggregates a core's execution statistics.
type Counters struct {
	Cycles     stats.Counter
	Instrs     stats.Counter
	UserInstrs stats.Counter
	OSInstrs   stats.Counter
	UserCycles stats.Counter
	OSCycles   stats.Counter
	StallCyc   stats.Counter // memory stall portion of Cycles
	IdleCyc    stats.Counter // cycles waiting on migration/queuing; the
	// core could clock-gate or enter a low-power state here (the basis
	// of the energy extension)
}

// IPC returns instructions per cycle over everything executed on the core.
func (c *Counters) IPC() float64 {
	return stats.Ratio(c.Instrs.Value(), c.Cycles.Value())
}

// Reset clears the counters (epoch boundaries).
func (c *Counters) Reset() { *c = Counters{} }

// Core is one in-order processor with private L1s, attached as one node
// of the coherent L2 system.
type Core struct {
	id   int
	node int
	cfg  Config
	l1i  *cache.Cache
	l1d  *cache.Cache
	sys  *coherence.System
	// mem is the active memory-system port: sys in serial mode, a
	// node-private coherence.EpochPort while a parallel quantum runs
	// (SetPort). Every L1 miss routes through it.
	mem coherence.Port

	memAcc float64 // fractional data-reference accumulator
	ifCnt  int     // instructions since last I-line fetch

	// refBuf is the detailed loop's reference staging buffer: RunSegment
	// drains each chunk of the segment's reference stream into it before
	// replaying the references through the memory hierarchy. Generating
	// and simulating in separate passes keeps the trace tables and the
	// tag/directory arrays from evicting each other every few
	// instructions. Allocated once; reused for every chunk.
	refBuf []uint64

	// Functional-warming state (interval sampling): while warming, the
	// core issues 1 of every warmStride references in bulk — enough to
	// keep cache and directory state alive — and estimates cycles
	// instead of accounting them per instruction.
	warming     bool
	warmStride  int
	warmIFCnt   int // I-fetches owed since the last warming fetch
	warmDataCnt int // data references owed since the last warming access

	// Calibrated CPI, tracked separately for user and OS segments while
	// the core executes in detail. Warming charges instrs×CPI instead of
	// scaling its strided stall sample: the strided references see a
	// warmer-than-steady cache (skipping references slows churn), so a
	// stall-derived clock runs systematically fast — and downstream the
	// OS-core queue model turns that clock bias into congestion error.
	cpiUser cpiEWMA
	cpiOS   cpiEWMA

	Counters Counters
}

// cpiTau is the instruction horizon of the CPI calibration: each update
// decays history by exp(-instrs/cpiTau), so the estimate tracks roughly
// the last ~50k detailed instructions.
const cpiTau = 50_000

// cpiMinInstrs is the minimum (decayed) instruction mass before a CPI
// estimate is trusted; below it warming falls back to stall scaling.
const cpiMinInstrs = 2_000

// cpiEWMA is an instruction-weighted exponential average of cycles per
// instruction.
type cpiEWMA struct {
	cyc, ins float64
}

func (e *cpiEWMA) update(cycles, instrs uint64) {
	f := math.Exp(-float64(instrs) / cpiTau)
	e.cyc = float64(e.cyc*f) + float64(cycles)
	e.ins = float64(e.ins*f) + float64(instrs)
}

func (e *cpiEWMA) cpi() (float64, bool) {
	if e.ins < cpiMinInstrs {
		return 0, false
	}
	return e.cyc / e.ins, true
}

// New builds a core attached to coherence node `node` of sys and wires
// the inclusion hooks. Core ids are only labels; the node index is what
// routes memory traffic.
func New(id, node int, cfg Config, sys *coherence.System) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1iCfg := cfg.L1I
	l1iCfg.Name = fmt.Sprintf("%s%d", cfg.L1I.Name, id)
	l1dCfg := cfg.L1D
	l1dCfg.Name = fmt.Sprintf("%s%d", cfg.L1D.Name, id)
	l1i, err := cache.New(l1iCfg)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(l1dCfg)
	if err != nil {
		return nil, err
	}
	c := &Core{id: id, node: node, cfg: cfg, l1i: l1i, l1d: l1d, sys: sys, mem: sys}
	sys.RegisterL1Hook(node, func(lineAddr uint64) {
		l1i.Invalidate(lineAddr)
		l1d.Invalidate(lineAddr)
	})
	return c, nil
}

// MustNew panics on config errors.
func MustNew(id, node int, cfg Config, sys *coherence.System) *Core {
	c, err := New(id, node, cfg, sys)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the core's label.
func (c *Core) ID() int { return c.id }

// Node returns the coherence node the core drives.
func (c *Core) Node() int { return c.node }

// L1I exposes the instruction cache (stats/tests).
func (c *Core) L1I() *cache.Cache { return c.l1i }

// L1D exposes the data cache (stats/tests).
func (c *Core) L1D() *cache.Cache { return c.l1d }

// refChunkInstrs is the instruction span drained per draw/replay round
// of the detailed loop. Large enough that each pass amortises warming
// its working set into the host caches, small enough that the staged
// references (at most 2 per instruction) stay cache-resident.
const refChunkInstrs = 8192

// Reference kinds packed into the low two bits of a staged reference;
// the line address occupies the rest (line addresses are byte addresses
// shifted right by at least 6, so bits 62-63 are free).
const (
	refIF    = 0
	refRead  = 1
	refWrite = 2
)

// access runs one reference through an L1 array and, on a miss, the
// coherent L2 system. The returned cycles are the *stall* contribution: an
// L1 hit costs zero extra (its 1-cycle latency is the base CPI).
func (c *Core) access(l1 *cache.Cache, lineAddr uint64, write bool) int {
	l1.Stats.Accesses.Inc()
	// Probe = lookup + recency touch in one way scan. A present line is
	// touched even when the access continues as a write-upgrade miss:
	// the line is being used either way, and Allocate refreshes it again
	// on fill.
	st := l1.Probe(lineAddr)
	if st != cache.Invalid && (!write || st == cache.Modified) {
		l1.Stats.Hits.Inc()
		return 0
	}
	return c.missRef(l1, lineAddr, write)
}

// missRef completes an L1-missing reference through the coherent L2
// system and refills the L1. Split from access so RunSegment's replay
// loop can issue the hit path without a second call frame.
func (c *Core) missRef(l1 *cache.Cache, lineAddr uint64, write bool) int {
	l1.Stats.Misses.Inc()
	var lat int
	if write {
		lat, _ = c.mem.Write(c.node, lineAddr)
	} else {
		lat, _ = c.mem.Read(c.node, lineAddr)
	}
	fill := cache.Shared
	if write {
		fill = cache.Modified
	}
	// L1 victims need no action: inclusion guarantees the L2 still holds
	// the line, and dirty L1 data folds into the L2's Modified state.
	l1.Allocate(lineAddr, fill)
	return lat
}

// SetWarming switches the core between detailed execution and
// functional warming. stride must be >= 1: while warming, 1 of every
// stride cache references is performed (skipped references draw no
// randomness, which is where the speedup comes from) and the observed
// stall is scaled back up by stride to keep the core's clock estimate
// honest for scheduling and OS-core queuing.
func (c *Core) SetWarming(on bool, stride int) {
	if stride < 1 {
		stride = 1
	}
	c.warming = on
	c.warmStride = stride
}

// Warming reports whether the core is in functional-warming mode.
func (c *Core) Warming() bool { return c.warming }

// warmSegment is the functional-warming counterpart of RunSegment:
// references are issued in bulk with a stride to keep cache, directory
// and recency state alive, and no per-instruction work happens. Cycle
// cost is charged from the calibrated CPI of recent detailed execution
// (falling back to the scaled-up observed stall until calibration has
// seen enough instructions); a full-density warming segment (stride 1)
// performs exactly the references a detailed one would, so its observed
// stall is exact and feeds the calibration. The fractional fetch/data
// accumulators are shared with the detailed path so mode switches stay
// seamless.
func (c *Core) warmSegment(seg *trace.Segment) uint64 {
	nIF, ifCnt, nData, memAcc := seg.BatchRefs(c.cfg.IFetchInterval, c.ifCnt, c.memAcc)
	c.ifCnt, c.memAcc = ifCnt, memAcc

	stall := uint64(0)
	c.warmIFCnt += nIF
	for ; c.warmIFCnt >= c.warmStride; c.warmIFCnt -= c.warmStride {
		stall += uint64(c.access(c.l1i, seg.NextIFetch(), false))
	}
	c.warmDataCnt += nData
	for ; c.warmDataCnt >= c.warmStride; c.warmDataCnt -= c.warmStride {
		la, wr := seg.NextData()
		stall += uint64(c.access(c.l1d, la, wr))
	}

	e := &c.cpiUser
	if seg.IsOS() {
		e = &c.cpiOS
	}
	var cycles uint64
	if c.warmStride == 1 {
		cycles = uint64(seg.Instrs) + stall
		e.update(cycles, uint64(seg.Instrs))
	} else if cpi, ok := e.cpi(); ok {
		cycles = uint64(float64(float64(seg.Instrs)*cpi) + 0.5)
		if cycles < uint64(seg.Instrs) {
			cycles = uint64(seg.Instrs)
		}
	} else {
		cycles = uint64(seg.Instrs) + stall*uint64(c.warmStride)
	}
	stallOut := cycles - uint64(seg.Instrs)

	c.Counters.Cycles.Add(cycles)
	c.Counters.Instrs.Add(uint64(seg.Instrs))
	c.Counters.StallCyc.Add(stallOut)
	if seg.IsOS() {
		c.Counters.OSInstrs.Add(uint64(seg.Instrs))
		c.Counters.OSCycles.Add(cycles)
	} else {
		c.Counters.UserInstrs.Add(uint64(seg.Instrs))
		c.Counters.UserCycles.Add(cycles)
	}
	return cycles
}

// RunSegment executes one segment to completion and returns its cycle
// cost. The in-order pipeline retires one instruction per cycle; each
// I-line fetch and data reference that misses the L1 stalls retirement
// for the full miss latency. A core in warming mode takes the estimated
// bulk path instead.
func (c *Core) RunSegment(seg *trace.Segment) uint64 {
	if c.warming {
		return c.warmSegment(seg)
	}
	cycles := uint64(seg.Instrs)
	stall := uint64(0)
	// Hot loop, fissioned into a draw pass and a replay pass per chunk.
	// The draw pass walks the instruction stream exactly as a fused loop
	// would — same counters, same float accumulator (repeated addition is
	// not associative, so it must not be batched into a multiply), same
	// interleaving of I-fetch and data draws from the segment's stream —
	// but only records the references. The replay pass then issues them
	// through the hierarchy in that recorded order, so every cache,
	// directory and counter sees the identical access sequence. The split
	// exists purely for locality: drawing touches the shared Zipf guide
	// and threshold tables, replaying touches the tag and directory arrays,
	// and interleaving the two per-instruction made each evict the other.
	ifCnt, memAcc := c.ifCnt, c.memAcc
	interval, ratio := c.cfg.IFetchInterval, seg.MemRatio
	if c.refBuf == nil {
		c.refBuf = make([]uint64, 0, refChunkInstrs+refChunkInstrs/interval+2)
	}
	for done := 0; done < seg.Instrs; {
		chunk := seg.Instrs - done
		if chunk > refChunkInstrs {
			chunk = refChunkInstrs
		}
		done += chunk
		buf := c.refBuf[:0]
		// Stride by I-fetch periods instead of testing the fetch counter
		// every instruction: a run covers the instructions up to and
		// including the next fetch (or the end of the chunk), the fetch
		// fires on the run's last instruction before that instruction's
		// data-reference check — exactly where the per-instruction
		// counter would have fired it.
		for i := 0; i < chunk; {
			run := interval - ifCnt
			if run < 1 {
				run = 1 // a counter carried at/past the interval fires immediately
			}
			fetch := true
			if run > chunk-i {
				run = chunk - i
				ifCnt += run
				fetch = false
			} else {
				ifCnt = 0
			}
			i += run
			if fetch {
				run--
			}
			for j := 0; j < run; j++ {
				memAcc += ratio
				if memAcc >= 1 {
					memAcc--
					la, wr := seg.NextData()
					op := uint64(refRead)
					if wr {
						op = refWrite
					}
					buf = append(buf, la<<2|op)
				}
			}
			if fetch {
				buf = append(buf, seg.NextIFetch()<<2|refIF)
				memAcc += ratio
				if memAcc >= 1 {
					memAcc--
					la, wr := seg.NextData()
					op := uint64(refRead)
					if wr {
						op = refWrite
					}
					buf = append(buf, la<<2|op)
				}
			}
		}
		c.refBuf = buf
		// Replay with the L1-hit path open-coded: hits are the common
		// case and this saves them the access() call frame. The access
		// sequence and every counter update match access() exactly.
		for _, r := range buf {
			la := r >> 2
			l1, write := c.l1d, false
			switch r & 3 {
			case refIF:
				l1 = c.l1i
			case refWrite:
				write = true
			}
			l1.Stats.Accesses.Inc()
			st := l1.Probe(la)
			if st != cache.Invalid && (!write || st == cache.Modified) {
				l1.Stats.Hits.Inc()
				continue
			}
			stall += uint64(c.missRef(l1, la, write))
		}
	}
	c.ifCnt, c.memAcc = ifCnt, memAcc
	cycles += stall

	if seg.IsOS() {
		c.cpiOS.update(cycles, uint64(seg.Instrs))
	} else {
		c.cpiUser.update(cycles, uint64(seg.Instrs))
	}
	c.Counters.Cycles.Add(cycles)
	c.Counters.Instrs.Add(uint64(seg.Instrs))
	c.Counters.StallCyc.Add(stall)
	if seg.IsOS() {
		c.Counters.OSInstrs.Add(uint64(seg.Instrs))
		c.Counters.OSCycles.Add(cycles)
	} else {
		c.Counters.UserInstrs.Add(uint64(seg.Instrs))
		c.Counters.UserCycles.Add(cycles)
	}
	return cycles
}

// Stall charges busy-wait cycles to the core (decision instrumentation):
// they advance time without retiring instructions, with the core active.
func (c *Core) Stall(cycles uint64) {
	c.Counters.Cycles.Add(cycles)
	c.Counters.StallCyc.Add(cycles)
}

// Idle charges low-power-eligible cycles (migration transit, OS-core
// queuing, remote execution): the core has nothing to execute and could
// sleep, which is what makes off-loading an energy play (Mogul et al.).
func (c *Core) Idle(cycles uint64) {
	c.Counters.Cycles.Add(cycles)
	c.Counters.IdleCyc.Add(cycles)
}

// AdjustIdle corrects a previously charged Idle estimate by delta
// cycles. The parallel engine charges an off-load's round trip from an
// epoch-start estimate during the quantum and trues it up here once the
// OS core resolves the actual execution and queuing cost at the
// barrier. A negative delta must not exceed the estimate it corrects.
func (c *Core) AdjustIdle(delta int64) {
	if delta >= 0 {
		c.Idle(uint64(delta))
		return
	}
	d := uint64(-delta)
	c.Counters.Cycles.Sub(d)
	c.Counters.IdleCyc.Sub(d)
}

// SetPort redirects the core's L1-miss traffic to p; nil restores the
// shared coherence system. The parallel engine installs a node-private
// coherence.EpochPort for the duration of each quantum.
func (c *Core) SetPort(p coherence.Port) {
	if p == nil {
		c.mem = c.sys
		return
	}
	c.mem = p
}

// ResetStats clears core and L1 counters, preserving cache contents.
func (c *Core) ResetStats() {
	c.Counters.Reset()
	c.l1i.Stats.Reset()
	c.l1d.Stats.Reset()
}

// MissCount returns the combined L1 I+D miss count — the telemetry
// layer differences it around an off-loaded invocation to price the OS
// core's cache warm-up.
func (c *Core) MissCount() uint64 {
	return c.l1i.Stats.Misses.Value() + c.l1d.Stats.Misses.Value()
}

// CalibratedCPI reports the core's current calibrated cycles-per-
// instruction estimates for user and OS segments (zero until warming
// calibration has seen enough detailed instructions). Diagnostic.
func (c *Core) CalibratedCPI() (user, os float64) {
	user, _ = c.cpiUser.cpi()
	os, _ = c.cpiOS.cpi()
	return user, os
}
