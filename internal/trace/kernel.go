package trace

import (
	"offloadsim/internal/rng"
	"offloadsim/internal/syscalls"
)

// KernelLayout is the global kernel footprint shared by every core's OS
// invocations: a common entry/exit path, per-syscall text, per-syscall
// data and the interrupt handlers. Because the layout is global, OS
// invocations from different cores touch the *same* lines — the
// constructive interference at a shared OS core that §I counts among
// off-loading's benefits, and conversely the OS-side cache pollution when
// invocations run in place on user cores.
//
// Kernel text is shared per syscall (and read-only, so copies replicate
// cheaply in the Shared MESI state). Kernel *data* is split: a quarter of
// each handler's footprint is common to all of its invocations (inode and
// socket metadata), while the rest is per-argument-class (different
// request sizes walk different amounts of page cache), so invocations of
// different classes do not artificially drag one working set between
// cores when an off-loading threshold separates them.
type KernelLayout struct {
	CommonCode *Region // trap entry/exit, syscall dispatch
	CommonData *Region // current-thread, scheduler, accounting structures

	SysCode [syscalls.NumIDs]*Region

	sysDataShared [syscalls.NumIDs]*Region
	sysDataClass  [syscalls.NumIDs][]*Region

	IRQCode *Region
	IRQData *Region
}

// Footprint sizes of the shared kernel paths, in 64 B lines.
const (
	commonCodeLines = 128
	commonDataLines = 320
	irqCodeLines    = 96
	irqDataLines    = 160

	// sysDataSharedFrac is the fraction of a handler's data footprint
	// common to all argument classes.
	sysDataSharedFrac = 0.25
)

// NewKernelLayout carves the kernel footprint out of space. The hot-set
// parameters are fixed: kernel code is highly reused (hot), kernel data
// moderately so.
//
// Regions draw from their callers' streams and hold none of their own,
// but the layout still forks src once per region, in carving order, so
// that a caller that goes on drawing from src sees the sequence the
// golden corpus pins.
func NewKernelLayout(space *AddressSpace, src *rng.Source) *KernelLayout {
	region := func(lines int, hotFrac, zipfS float64) *Region {
		src.ForkVal()
		return NewRegion(space, lines, hotFrac, zipfS)
	}
	k := &KernelLayout{
		CommonCode: region(commonCodeLines, 0.9, 1.0),
		CommonData: region(commonDataLines, 0.8, 0.9),
		IRQCode:    region(irqCodeLines, 0.9, 1.0),
		IRQData:    region(irqDataLines, 0.7, 0.9),
	}
	for _, spec := range syscalls.All() {
		k.SysCode[spec.ID] = region(spec.CodeLines, 0.85, 1.0)
		shared := int(float64(spec.DataLines) * sysDataSharedFrac)
		if shared < 4 {
			shared = 4
		}
		k.sysDataShared[spec.ID] = region(shared, 0.7, 0.9)
		perClass := (spec.DataLines - shared) / spec.ArgClasses
		if perClass < 4 {
			perClass = 4
		}
		regions := make([]*Region, spec.ArgClasses)
		for c := range regions {
			// Larger argument classes touch proportionally more data
			// (bigger buffers walk more page cache).
			lines := perClass * (c + 1) * 2 / (spec.ArgClasses + 1)
			if lines < 4 {
				lines = 4
			}
			regions[c] = region(lines, 0.7, 0.9)
		}
		k.sysDataClass[spec.ID] = regions
	}
	return k
}

// SysDataShared returns the class-independent data slice of a handler.
func (k *KernelLayout) SysDataShared(id syscalls.ID) *Region {
	return k.sysDataShared[id]
}

// SysDataClass returns the per-argument-class data slice of a handler;
// the class is clamped to the valid range.
func (k *KernelLayout) SysDataClass(id syscalls.ID, class int) *Region {
	rs := k.sysDataClass[id]
	if class < 0 {
		class = 0
	}
	if class >= len(rs) {
		class = len(rs) - 1
	}
	return rs[class]
}

// TotalLines returns the aggregate kernel footprint in lines, for
// reporting the OS working-set size.
func (k *KernelLayout) TotalLines() int {
	total := k.CommonCode.Lines() + k.CommonData.Lines() + k.IRQCode.Lines() + k.IRQData.Lines()
	for _, spec := range syscalls.All() {
		total += k.SysCode[spec.ID].Lines() + k.sysDataShared[spec.ID].Lines()
		for _, r := range k.sysDataClass[spec.ID] {
			total += r.Lines()
		}
	}
	return total
}
