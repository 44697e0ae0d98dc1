package cpu

import (
	"testing"

	"offloadsim/internal/cache"
	"offloadsim/internal/coherence"
	"offloadsim/internal/interconnect"
	"offloadsim/internal/memory"
	"offloadsim/internal/rng"
	"offloadsim/internal/trace"
	"offloadsim/internal/workloads"
)

func testSystem(nodes int) *coherence.System {
	return coherence.MustNew(coherence.Config{
		NumNodes:         nodes,
		L2:               cache.Config{Name: "L2", SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, HitLatency: 12},
		DirectoryLatency: 10,
		Fabric:           interconnect.Config{LinkLatency: 4, RouterLatency: 1},
		Memory:           memory.Config{Latency: 350},
	})
}

func testSegment(t testing.TB, seed uint64) (*trace.Generator, trace.Segment) {
	t.Helper()
	space := &trace.AddressSpace{}
	src := rng.New(seed)
	k := trace.NewKernelLayout(space, src.Fork())
	g := trace.MustNewGenerator(workloads.Apache(), 0, k, space, src.Fork())
	return g, g.Next()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.IFetchInterval = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero fetch interval accepted")
	}
	bad = DefaultConfig()
	bad.L1D.LineBytes = 48
	if err := bad.Validate(); err == nil {
		t.Fatal("bad L1D accepted")
	}
}

func TestRunSegmentChargesAtLeastOneCyclePerInstr(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	_, seg := testSegment(t, 5)
	cycles := c.RunSegment(&seg)
	if cycles < uint64(seg.Instrs) {
		t.Fatalf("cycles %d < instrs %d", cycles, seg.Instrs)
	}
	if c.Counters.Instrs.Value() != uint64(seg.Instrs) {
		t.Fatal("instruction counter mismatch")
	}
	if c.Counters.Cycles.Value() != cycles {
		t.Fatal("cycle counter mismatch")
	}
}

func TestWarmCacheRunsFaster(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	g, _ := testSegment(t, 7)
	// Use a long user segment; run a clone of the access pattern twice.
	var seg trace.Segment
	for {
		seg = g.Next()
		if seg.Kind == trace.UserSegment && seg.Instrs > 500 {
			break
		}
	}
	cold := c.RunSegment(&seg)
	warm := c.RunSegment(&seg) // walkers advance, but hot set is cached now
	if warm >= cold {
		t.Fatalf("warm run (%d) not faster than cold run (%d)", warm, cold)
	}
}

func TestUserOSSplitAccounting(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	g, _ := testSegment(t, 9)
	for i := 0; i < 50; i++ {
		seg := g.Next()
		c.RunSegment(&seg)
	}
	cnt := &c.Counters
	if cnt.UserInstrs.Value() == 0 || cnt.OSInstrs.Value() == 0 {
		t.Fatal("user/OS split not populated")
	}
	if cnt.UserInstrs.Value()+cnt.OSInstrs.Value() != cnt.Instrs.Value() {
		t.Fatal("user+OS != total instructions")
	}
	if cnt.UserCycles.Value()+cnt.OSCycles.Value() != cnt.Cycles.Value() {
		t.Fatal("user+OS != total cycles")
	}
}

func TestStallAdvancesTimeWithoutInstrs(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	c.Stall(5000)
	if c.Counters.Cycles.Value() != 5000 || c.Counters.Instrs.Value() != 0 {
		t.Fatal("Stall accounting wrong")
	}
	if c.Counters.IPC() != 0 {
		t.Fatal("IPC of pure stall should be 0")
	}
}

func TestInclusionBackInvalidation(t *testing.T) {
	sys := testSystem(2)
	c0 := MustNew(0, 0, DefaultConfig(), sys)
	c1 := MustNew(1, 1, DefaultConfig(), sys)
	// Core 0 reads a line into L1D+L2.
	c0.access(c0.l1d, 42, false)
	if c0.L1D().Lookup(42) == cache.Invalid {
		t.Fatal("line not in L1D after access")
	}
	// Core 1 writes the same line: node 0's L2 copy is invalidated, and
	// inclusion must drop the L1 copy too.
	c1.access(c1.l1d, 42, true)
	if c0.L1D().Lookup(42) != cache.Invalid {
		t.Fatal("L1 copy survived L2 invalidation (inclusion violated)")
	}
}

func TestL1HitCostsNoStall(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	if lat := c.access(c.l1d, 7, false); lat == 0 {
		t.Fatal("cold access should stall")
	}
	if lat := c.access(c.l1d, 7, false); lat != 0 {
		t.Fatalf("L1 hit stalled %d cycles", lat)
	}
}

func TestWriteUpgradeGoesToL2(t *testing.T) {
	sys := testSystem(2)
	c0 := MustNew(0, 0, DefaultConfig(), sys)
	c1 := MustNew(1, 1, DefaultConfig(), sys)
	// Both read: line Shared in both L1/L2 pairs.
	c0.access(c0.l1d, 9, false)
	c1.access(c1.l1d, 9, false)
	// Write from core 0 must upgrade (stall > 0) and invalidate core 1.
	if lat := c0.access(c0.l1d, 9, true); lat == 0 {
		t.Fatal("write upgrade from Shared should not be free")
	}
	if c1.L1D().Lookup(9) != cache.Invalid {
		t.Fatal("remote L1 copy survived upgrade")
	}
	// Subsequent write is a pure L1 hit.
	if lat := c0.access(c0.l1d, 9, true); lat != 0 {
		t.Fatalf("write to Modified L1 line stalled %d", lat)
	}
}

func TestResetStatsPreservesCaches(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	c.access(c.l1d, 3, false)
	c.ResetStats()
	if c.Counters.Cycles.Value() != 0 {
		t.Fatal("counters not reset")
	}
	if lat := c.access(c.l1d, 3, false); lat != 0 {
		t.Fatal("reset discarded cache contents")
	}
}

func TestIFetchesHappen(t *testing.T) {
	sys := testSystem(1)
	c := MustNew(0, 0, DefaultConfig(), sys)
	_, seg := testSegment(t, 13)
	c.RunSegment(&seg)
	if c.L1I().Stats.Accesses.Value() == 0 {
		t.Fatal("no instruction fetches recorded")
	}
	// Roughly Instrs/16 fetches.
	want := uint64(seg.Instrs / 16)
	got := c.L1I().Stats.Accesses.Value()
	if got < want/2 || got > want*2+2 {
		t.Fatalf("ifetches = %d, want ~%d", got, want)
	}
}
