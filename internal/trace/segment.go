package trace

import (
	"fmt"

	"offloadsim/internal/rng"
	"offloadsim/internal/syscalls"
)

// SegmentKind classifies a contiguous stretch of single-mode execution.
type SegmentKind int

const (
	// UserSegment is unprivileged application execution.
	UserSegment SegmentKind = iota
	// SyscallSegment is a privileged system-call invocation.
	SyscallSegment
	// TrapSegment is a short hardware trap handled in privileged mode
	// (register-window spill/fill, TLB refill).
	TrapSegment
)

// String implements fmt.Stringer.
func (k SegmentKind) String() string {
	switch k {
	case UserSegment:
		return "user"
	case SyscallSegment:
		return "syscall"
	case TrapSegment:
		return "trap"
	}
	return fmt.Sprintf("SegmentKind(%d)", int(k))
}

// maxSources bounds the number of data-access targets per segment.
const maxSources = 6

// dataSource is one data-reference target as the generator weighs it.
type dataSource struct {
	region    *Region
	weight    float64
	writeFrac float64
}

// dataPick is a dataSource normalized for drawing: a draw u picks the
// first source whose cumulative normalized weight cum satisfies u <= cum.
type dataPick struct {
	region *Region
	cut    uint64 // rng.AtMost(cum)
	write  rng.Chance
}

// Segment is one schedulable unit of execution. OS segments carry the
// AState hash captured at the privileged-mode transition (the predictor's
// index) and the ground-truth instruction count the predictor trains on.
type Segment struct {
	Kind     SegmentKind
	Sys      syscalls.ID
	ArgClass int

	// AState is the XOR register hash at OS entry; zero for user
	// segments.
	AState uint64

	// Instrs is the actual instruction count, including any interrupt
	// extension.
	Instrs int
	// NominalInstrs is the pre-extension length (what argument-based
	// software estimation could at best compute).
	NominalInstrs int
	// Interrupted marks invocations extended by an external interrupt.
	Interrupted bool

	// MemRatio is data references per instruction for this segment.
	MemRatio float64

	// code regions: ifetches come from codeMain, with codeAltChance
	// directing a fraction to codeAlt (kernel common path or IRQ code).
	codeMain      *Region
	codeAlt       *Region
	codeAltChance rng.Chance

	sources  [maxSources]dataPick
	nSources int

	// src is the segment's private reference stream, held by value so
	// producing a segment allocates nothing.
	src rng.Source
}

// setSources normalizes the weights into the cumulative form NextData
// draws from; zero-weight entries are dropped.
func (s *Segment) setSources(entries ...dataSource) {
	total := 0.0
	for _, e := range entries {
		total += e.weight
	}
	if total <= 0 {
		panic("trace: segment with no data sources")
	}
	s.nSources = 0
	acc := 0.0
	for _, e := range entries {
		if e.weight <= 0 {
			continue
		}
		acc += e.weight / total
		s.sources[s.nSources] = dataPick{region: e.region, cut: rng.AtMost(acc), write: rng.NewChance(e.writeFrac)}
		s.nSources++
	}
	// Guard against floating-point shortfall on the last bucket: pin its
	// cum to 1.0, which every draw satisfies.
	s.sources[s.nSources-1].cut = rng.AtMost(1.0)
}

// NextData returns the next data reference of the segment: a line address
// and whether it is a write.
func (s *Segment) NextData() (lineAddr uint64, write bool) {
	m := s.src.Uint53()
	for i := 0; ; i++ {
		if m <= s.sources[i].cut {
			src := &s.sources[i]
			return src.region.NextFrom(&s.src), src.write.DrawFrom(&s.src)
		}
	}
}

// BatchRefs converts the segment's length into whole reference counts
// for functional warming, where references are issued in bulk instead of
// per instruction. ifCarry is the instruction count since the last
// I-line fetch (cpu.Config.IFetchInterval domain) and dataCarry the
// fractional data-reference accumulator; both are returned updated so a
// warming stream stays in step with the per-instruction accounting a
// detailed segment would have performed.
func (s *Segment) BatchRefs(ifInterval int, ifCarry int, dataCarry float64) (nIFetch, newIFCarry int, nData int, newDataCarry float64) {
	newIFCarry = ifCarry + s.Instrs
	nIFetch = newIFCarry / ifInterval
	newIFCarry -= nIFetch * ifInterval

	newDataCarry = dataCarry + s.MemRatio*float64(s.Instrs)
	nData = int(newDataCarry)
	newDataCarry -= float64(nData)
	return nIFetch, newIFCarry, nData, newDataCarry
}

// NextIFetch returns the next instruction-fetch line address.
func (s *Segment) NextIFetch() uint64 {
	if s.codeAlt != nil && s.codeAltChance.DrawFrom(&s.src) {
		return s.codeAlt.NextFrom(&s.src)
	}
	return s.codeMain.NextFrom(&s.src)
}

// IsOS reports whether the segment executes in privileged mode.
func (s *Segment) IsOS() bool { return s.Kind != UserSegment }
