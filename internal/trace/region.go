// Package trace turns workload profiles into the segment streams the
// simulated cores execute. A segment is one contiguous stretch of
// execution in one privilege mode: a user burst, a system call, a
// spill/fill or TLB trap, each carrying an instruction count and a memory
// access pattern over region-based footprints. The generator also computes
// the AState register hash at every privileged entry, which is the
// predictor's only input.
package trace

import (
	"fmt"

	"offloadsim/internal/rng"
)

// AddressSpace hands out disjoint line-address ranges. All addresses in
// the simulator are cache-line addresses (byte address >> 6 for the 64 B
// baseline); working in line space keeps the cache and coherence layers
// free of repeated shifting.
type AddressSpace struct {
	next uint64
}

// guardLines separates consecutive regions so set-index aliasing between
// regions is not systematically aligned.
const guardLines = 64

// Alloc reserves lines consecutive line addresses and returns the base.
func (a *AddressSpace) Alloc(lines int) uint64 {
	if lines <= 0 {
		panic(fmt.Sprintf("trace: Alloc(%d)", lines))
	}
	base := a.next
	a.next += uint64(lines) + guardLines
	return base
}

// Allocated returns the total line count consumed (diagnostics).
func (a *AddressSpace) Allocated() uint64 { return a.next }

// Region is a contiguous footprint with a reference-locality model: a
// Zipf-hot subset absorbs HotFrac of references, and the remainder falls
// uniformly across the whole range. This reproduces the classic
// server-workload pattern of hot metadata plus a lukewarm bulk whose
// cache behaviour degrades *proportionally* as resident share shrinks —
// the property that makes OS/user cache interference a graded effect
// rather than a cliff.
type Region struct {
	base  uint64
	lines int

	hot  rng.Chance // a reference goes to the hot subset
	zipf *rng.Zipf
}

// NewRegion creates a region of the given line count. hotFrac of accesses
// go to a Zipf(s)-distributed hot subset (a quarter of the region, at
// least one line); the rest are uniform over the region. A region holds
// no stream: every reference draws from the caller's.
func NewRegion(space *AddressSpace, lines int, hotFrac, zipfS float64) *Region {
	if lines <= 0 {
		panic(fmt.Sprintf("trace: NewRegion with %d lines", lines))
	}
	if hotFrac < 0 || hotFrac > 1 {
		panic(fmt.Sprintf("trace: hotFrac %v out of [0,1]", hotFrac))
	}
	hotLines := lines / 4
	if hotLines < 1 {
		hotLines = 1
	}
	if zipfS <= 0 {
		zipfS = 0.8
	}
	return &Region{
		base:  space.Alloc(lines),
		lines: lines,
		hot:   rng.NewChance(hotFrac),
		zipf:  rng.NewZipf(hotLines, zipfS),
	}
}

// Base returns the first line address of the region.
func (r *Region) Base() uint64 { return r.base }

// Lines returns the region size in lines.
func (r *Region) Lines() int { return r.lines }

// Contains reports whether lineAddr falls inside the region.
func (r *Region) Contains(lineAddr uint64) bool {
	return lineAddr >= r.base && lineAddr < r.base+uint64(r.lines)
}

// NextFrom draws the next referenced line address from the caller's
// stream. Segments use this so that all per-reference randomness comes
// from the segment's private stream: a segment that issues only a
// strided subset of its references (functional warming) consumes draws
// from its own fork and leaves every other segment's addresses — and
// therefore the rest of the trace — bit-identical to a fully detailed
// execution.
func (r *Region) NextFrom(src *rng.Source) uint64 {
	if r.hot.DrawFrom(src) {
		return r.base + uint64(r.zipf.DrawFrom(src))
	}
	return r.base + uint64(src.Intn(r.lines))
}
