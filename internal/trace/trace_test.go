package trace

import (
	"testing"
	"testing/quick"

	"offloadsim/internal/rng"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/workloads"
)

func newTestGen(t testing.TB, prof *workloads.Profile, seed uint64) *Generator {
	t.Helper()
	space := &AddressSpace{}
	src := rng.New(seed)
	kernel := NewKernelLayout(space, src.Fork())
	return MustNewGenerator(prof, 0, kernel, space, src.Fork())
}

func TestAddressSpaceDisjoint(t *testing.T) {
	var a AddressSpace
	b1 := a.Alloc(100)
	b2 := a.Alloc(50)
	if b2 < b1+100 {
		t.Fatalf("regions overlap: %d then %d", b1, b2)
	}
}

func TestAddressSpacePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	var a AddressSpace
	a.Alloc(0)
}

func TestRegionBounds(t *testing.T) {
	var space AddressSpace
	r := NewRegion(&space, 100, 0.7, 0.9)
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		la := r.NextFrom(src)
		if !r.Contains(la) {
			t.Fatalf("region produced out-of-range line %#x", la)
		}
	}
}

func TestRegionHotSetSkew(t *testing.T) {
	var space AddressSpace
	r := NewRegion(&space, 1000, 0.8, 1.0)
	src := rng.New(2)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[r.NextFrom(src)]++
	}
	// The hottest line should absorb far more than a uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/100 {
		t.Fatalf("hottest line only %d/%d refs; expected strong skew", max, n)
	}
}

func TestKernelLayoutCoversAllSyscalls(t *testing.T) {
	var space AddressSpace
	k := NewKernelLayout(&space, rng.New(3))
	for _, spec := range syscalls.All() {
		if k.SysCode[spec.ID] == nil || k.SysDataShared(spec.ID) == nil {
			t.Fatalf("no kernel regions for %s", spec.Name)
		}
		if k.SysCode[spec.ID].Lines() != spec.CodeLines {
			t.Fatalf("%s code region %d lines, want %d", spec.Name, k.SysCode[spec.ID].Lines(), spec.CodeLines)
		}
		for c := 0; c < spec.ArgClasses; c++ {
			if k.SysDataClass(spec.ID, c) == nil {
				t.Fatalf("%s missing class-%d data region", spec.Name, c)
			}
		}
		// Clamping.
		if k.SysDataClass(spec.ID, -1) != k.SysDataClass(spec.ID, 0) {
			t.Fatalf("%s negative class not clamped", spec.Name)
		}
		if k.SysDataClass(spec.ID, 99) != k.SysDataClass(spec.ID, spec.ArgClasses-1) {
			t.Fatalf("%s oversized class not clamped", spec.Name)
		}
	}
	if k.TotalLines() <= 0 {
		t.Fatal("empty kernel layout")
	}
}

func TestStreamAlternatesUserAndOS(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 7)
	prevUser := false
	users, oss := 0, 0
	for i := 0; i < 2000; i++ {
		seg := g.Next()
		if seg.Kind == UserSegment {
			if prevUser {
				t.Fatal("two consecutive user segments")
			}
			prevUser = true
			users++
		} else {
			prevUser = false
			oss++
		}
		if seg.Instrs < 1 {
			t.Fatalf("segment with %d instructions", seg.Instrs)
		}
	}
	if users == 0 || oss == 0 {
		t.Fatalf("stream missing a mode: users=%d os=%d", users, oss)
	}
}

func TestEveryUserBurstEndsInSyscall(t *testing.T) {
	g := newTestGen(t, workloads.Derby(), 11)
	sawSyscall := false
	for i := 0; i < 500; i++ {
		seg := g.Next()
		if seg.Kind == SyscallSegment {
			sawSyscall = true
			if seg.AState == 0 {
				t.Fatal("syscall segment with zero AState")
			}
		}
	}
	if !sawSyscall {
		t.Fatal("no syscalls in 500 segments")
	}
}

func TestAStateDeterministicPerSyscallAndClass(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 13)
	byKey := map[[2]int]uint64{}
	for i := 0; i < 20000; i++ {
		seg := g.Next()
		if seg.Kind != SyscallSegment {
			continue
		}
		key := [2]int{int(seg.Sys), seg.ArgClass}
		if prev, ok := byKey[key]; ok {
			if prev != seg.AState {
				t.Fatalf("%v class %d produced two AStates: %#x vs %#x",
					seg.Sys, seg.ArgClass, prev, seg.AState)
			}
		} else {
			byKey[key] = seg.AState
		}
	}
	if len(byKey) < 10 {
		t.Fatalf("only %d distinct (syscall,class) pairs seen", len(byKey))
	}
}

func TestDistinctSyscallsDistinctAStates(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 17)
	seen := map[uint64][2]int{}
	for i := 0; i < 20000; i++ {
		seg := g.Next()
		if seg.Kind != SyscallSegment {
			continue
		}
		key := [2]int{int(seg.Sys), seg.ArgClass}
		if prev, ok := seen[seg.AState]; ok && prev != key {
			t.Fatalf("AState %#x shared by %v and %v", seg.AState, prev, key)
		}
		seen[seg.AState] = key
	}
}

func TestTrapsAreGenerated(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 19)
	traps := map[syscalls.ID]int{}
	for i := 0; i < 30000; i++ {
		seg := g.Next()
		if seg.Kind == TrapSegment {
			traps[seg.Sys]++
			if seg.Instrs >= 100 {
				t.Fatalf("trap %v with %d instructions", seg.Sys, seg.Instrs)
			}
		}
	}
	if traps[syscalls.SpillTrap] == 0 || traps[syscalls.FillTrap] == 0 {
		t.Fatalf("window traps missing: %v", traps)
	}
	if traps[syscalls.TLBMiss] == 0 {
		t.Fatalf("TLB traps missing: %v", traps)
	}
}

func TestInterruptExtensionOnlyWhenUnmasked(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 23)
	extended := 0
	for i := 0; i < 40000; i++ {
		seg := g.Next()
		if !seg.Interrupted {
			continue
		}
		extended++
		if syscalls.Lookup(seg.Sys).MasksInterrupts {
			t.Fatalf("%v extended by interrupt despite masking", seg.Sys)
		}
		if seg.Instrs <= seg.NominalInstrs {
			t.Fatal("interrupted segment not longer than nominal")
		}
	}
	if extended == 0 {
		t.Fatal("no interrupt extensions observed")
	}
}

func TestSegmentAccessesStayInKnownRegions(t *testing.T) {
	g := newTestGen(t, workloads.SPECjbb(), 29)
	for i := 0; i < 300; i++ {
		seg := g.Next()
		for j := 0; j < 50; j++ {
			la, _ := seg.NextData()
			_ = la
			fetch := seg.NextIFetch()
			_ = fetch
		}
	}
	// Reaching here without panics means all walkers stayed in bounds
	// (Region.Next cannot escape by construction; this exercises the
	// source-selection paths including interrupt mixes).
}

func TestSpillTrapsWriteUserMemory(t *testing.T) {
	g := newTestGen(t, workloads.Apache(), 31)
	for i := 0; i < 30000; i++ {
		seg := g.Next()
		if seg.Kind != TrapSegment || seg.Sys != syscalls.SpillTrap {
			continue
		}
		writes, userWrites := 0, 0
		for j := 0; j < 200; j++ {
			la, wr := seg.NextData()
			if wr {
				writes++
				if g.UserData().Contains(la) {
					userWrites++
				}
			}
		}
		if writes == 0 {
			t.Fatal("spill trap produced no writes")
		}
		if userWrites == 0 {
			t.Fatal("spill trap never wrote user memory")
		}
		return
	}
	t.Fatal("no spill trap found")
}

// Calibration: emergent privileged-instruction shares must land in the
// bands the paper describes for each workload class.
func TestPrivilegedShareCalibration(t *testing.T) {
	cases := []struct {
		prof   *workloads.Profile
		lo, hi float64
	}{
		{workloads.Apache(), 0.38, 0.60},  // webserver: OS ~half the instructions
		{workloads.SPECjbb(), 0.25, 0.45}, // middleware
		{workloads.Derby(), 0.06, 0.16},   // database: modest OS share
		{workloads.Mcf(), 0.005, 0.06},    // compute-bound
		{workloads.Blackscholes(), 0.002, 0.06},
	}
	for _, c := range cases {
		g := newTestGen(t, c.prof, 37)
		for g.Stats.UserInstrs.Value()+g.Stats.OSInstrs.Value() < 3_000_000 {
			g.Next()
		}
		got := g.Stats.PrivFraction()
		if got < c.lo || got > c.hi {
			t.Errorf("%s: privileged share %.3f outside [%.3f,%.3f]",
				c.prof.Name, got, c.lo, c.hi)
		}
	}
}

// Calibration: the share of OS instruction time in invocations longer
// than 10k instructions must reproduce Table III's structure: large for
// apache/specjbb, negligible for derby.
func TestLongTailCalibration(t *testing.T) {
	measure := func(prof *workloads.Profile) (above10k, above1k float64) {
		g := newTestGen(t, prof, 41)
		var tot, a10, a1 uint64
		for i := 0; i < 60000; i++ {
			seg := g.Next()
			if !seg.IsOS() {
				continue
			}
			tot += uint64(seg.Instrs)
			if seg.Instrs > 10000 {
				a10 += uint64(seg.Instrs)
			}
			if seg.Instrs > 1000 {
				a1 += uint64(seg.Instrs)
			}
		}
		return float64(a10) / float64(tot), float64(a1) / float64(tot)
	}
	if a10, _ := measure(workloads.Apache()); a10 < 0.20 || a10 > 0.55 {
		t.Errorf("apache OS time >10k = %.3f, want 0.20-0.55 (Table III: 17.68/45.75)", a10)
	}
	if a10, _ := measure(workloads.SPECjbb()); a10 < 0.20 || a10 > 0.60 {
		t.Errorf("specjbb OS time >10k = %.3f, want 0.20-0.60 (Table III: 14.79/34.48)", a10)
	}
	a10, a1 := measure(workloads.Derby())
	if a10 > 0.05 {
		t.Errorf("derby OS time >10k = %.3f, want <= 0.05 (Table III: 0.2/8.2)", a10)
	}
	if a1 < 0.30 {
		t.Errorf("derby OS time >1k = %.3f, want >= 0.30 (medium-length I/O mix)", a1)
	}
}

// Property: generated segments always have positive length and OS
// segments always carry a non-zero AState.
func TestQuickSegmentWellFormed(t *testing.T) {
	f := func(seed uint64) bool {
		g := newTestGen(t, workloads.Derby(), seed)
		for i := 0; i < 200; i++ {
			seg := g.Next()
			if seg.Instrs < 1 {
				return false
			}
			if seg.IsOS() && seg.AState == 0 {
				return false
			}
			if !seg.IsOS() && seg.AState != 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := newTestGen(t, workloads.Apache(), 101)
	g2 := newTestGen(t, workloads.Apache(), 101)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Kind != b.Kind || a.Sys != b.Sys || a.Instrs != b.Instrs || a.AState != b.AState {
			t.Fatalf("streams diverged at segment %d: %+v vs %+v", i, a, b)
		}
	}
}
