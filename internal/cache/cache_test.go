package cache

import (
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, HitLatency: 1}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.LineBytes = 48
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two line size accepted")
	}
	bad = good
	bad.SizeBytes = 1000
	if err := bad.Validate(); err == nil {
		t.Fatal("non-divisible size accepted")
	}
	bad = good
	bad.Ways = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero ways accepted")
	}
	bad = good
	bad.HitLatency = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	// Non-power-of-two set count: 3 sets.
	bad = good
	bad.SizeBytes = 64 * 2 * 3
	if err := bad.Validate(); err == nil {
		t.Fatal("non-power-of-two set count accepted")
	}
	// LRU is the only replacement policy.
	for _, pol := range []ReplacementPolicy{1, 2, -1} {
		bad = good
		bad.Policy = pol
		if err := bad.Validate(); err == nil {
			t.Fatalf("replacement policy %d accepted", pol)
		}
	}
}

func TestNewRequiresRngForRandom(t *testing.T) {
	// The Random policy (value 1) and New's rng parameter are gone, so a
	// config that still asks for Random can never be given its rng: New
	// must refuse it rather than quietly build an LRU array.
	cfg := smallCfg()
	cfg.Policy = 1
	if c, err := New(cfg); err == nil {
		t.Fatalf("Random policy without rng accepted: %+v", c.Config())
	}
}

func TestBaselineGeometry(t *testing.T) {
	// Paper Table II: 1MB 16-way L2 with 64B lines -> 1024 sets.
	l2 := MustNew(Config{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16, HitLatency: 12})
	if l2.NumSets() != 1024 {
		t.Fatalf("L2 sets = %d, want 1024", l2.NumSets())
	}
	// 32KB 2-way L1 -> 256 sets.
	l1 := MustNew(Config{Name: "l1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 2, HitLatency: 1})
	if l1.NumSets() != 256 {
		t.Fatalf("L1 sets = %d, want 256", l1.NumSets())
	}
}

func TestLookupAllocate(t *testing.T) {
	c := MustNew(smallCfg())
	la := c.LineAddr(0x1000)
	if c.Lookup(la) != Invalid {
		t.Fatal("empty cache claims presence")
	}
	if _, evicted := c.Allocate(la, Exclusive); evicted {
		t.Fatal("allocation into empty set evicted")
	}
	if c.Lookup(la) != Exclusive {
		t.Fatalf("state = %v, want E", c.Lookup(la))
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(smallCfg()) // 8 sets, 2 ways
	nSets := uint64(c.NumSets())
	// Three lines mapping to set 0.
	a, b, d := nSets*0+0, nSets*1+0, nSets*2+0
	c.Allocate(a, Shared)
	c.Allocate(b, Shared)
	c.Probe(a) // b is now LRU
	v, evicted := c.Allocate(d, Shared)
	if !evicted {
		t.Fatal("full set did not evict")
	}
	if v.LineAddr != b {
		t.Fatalf("evicted %#x, want %#x (LRU)", v.LineAddr, b)
	}
	if c.Lookup(a) == Invalid || c.Lookup(d) == Invalid {
		t.Fatal("survivors missing")
	}
	if c.Lookup(b) != Invalid {
		t.Fatal("victim still present")
	}
}

func TestModifiedVictimReported(t *testing.T) {
	c := MustNew(smallCfg())
	nSets := uint64(c.NumSets())
	c.Allocate(0, Modified)
	c.Allocate(nSets, Shared)
	c.Probe(nSets)
	v, evicted := c.Allocate(2*nSets, Shared)
	if !evicted || v.State != Modified {
		t.Fatalf("dirty victim not reported: %+v evicted=%v", v, evicted)
	}
	if c.Stats.Writebacks.Value() != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks.Value())
	}
}

func TestAllocatePresentUpdatesState(t *testing.T) {
	c := MustNew(smallCfg())
	c.Allocate(7, Shared)
	if _, evicted := c.Allocate(7, Modified); evicted {
		t.Fatal("re-allocation evicted")
	}
	if c.Lookup(7) != Modified {
		t.Fatal("re-allocation did not update state")
	}
	if c.Occupancy() != 1 {
		t.Fatal("re-allocation duplicated the line")
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := MustNew(smallCfg())
	c.Allocate(3, Exclusive)
	c.SetState(3, Modified)
	if c.Lookup(3) != Modified {
		t.Fatal("upgrade lost")
	}
	c.SetState(3, Shared)
	if c.Lookup(3) != Shared {
		t.Fatal("downgrade lost")
	}
	if prev := c.Invalidate(3); prev != Shared {
		t.Fatalf("Invalidate returned %v", prev)
	}
	if c.Lookup(3) != Invalid {
		t.Fatal("line survived invalidation")
	}
	if prev := c.Invalidate(3); prev != Invalid {
		t.Fatal("double invalidation reported a state")
	}
}

func TestSetStatePanicsOnAbsent(t *testing.T) {
	c := MustNew(smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("SetState of absent line did not panic")
		}
	}()
	c.SetState(99, Modified)
}

// Probing an absent line reports Invalid and leaves recency alone: the
// set's LRU line is still the one evicted next.
func TestProbeAbsentIsInvalid(t *testing.T) {
	c := MustNew(smallCfg())
	nSets := uint64(c.NumSets())
	c.Allocate(0, Shared)
	c.Allocate(nSets, Shared)
	if st := c.Probe(2 * nSets); st != Invalid {
		t.Fatalf("Probe of absent line = %v, want I", st)
	}
	if c.Occupancy() != 2 {
		t.Fatalf("Probe changed occupancy to %d", c.Occupancy())
	}
	if v, _ := c.Allocate(3*nSets, Shared); v.LineAddr != 0 {
		t.Fatalf("evicted %#x, want 0 (LRU before the absent probe)", v.LineAddr)
	}
}

func TestAllocateInvalidPanics(t *testing.T) {
	c := MustNew(smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("Allocate(Invalid) did not panic")
		}
	}()
	c.Allocate(1, Invalid)
}

func TestFlush(t *testing.T) {
	c := MustNew(smallCfg())
	c.Allocate(1, Modified)
	c.Allocate(2, Shared)
	if dirty := c.Flush(); dirty != 1 {
		t.Fatalf("Flush reported %d dirty", dirty)
	}
	if c.Occupancy() != 0 {
		t.Fatal("Flush left lines valid")
	}
}

// On a 16-way set (the Table II L2's associativity) the victims come out
// in exact recency order.
func TestLRUEvictsOldestOf16Ways(t *testing.T) {
	c := MustNew(Config{Name: "l", SizeBytes: 64 * 16, LineBytes: 64, Ways: 16, HitLatency: 1}) // one set
	for i := uint64(0); i < 16; i++ {
		c.Allocate(i, Shared)
	}
	// Probe lines 15..1 so line 0 is oldest, then 15, 14, ..., 1.
	for i := uint64(15); i >= 1; i-- {
		c.Probe(i)
	}
	want := []uint64{0, 15, 14, 13}
	for n, w := range want {
		v, evicted := c.Allocate(100+uint64(n), Shared)
		if !evicted || v.LineAddr != w {
			t.Fatalf("eviction %d: victim %#x (evicted=%v), want %#x", n, v.LineAddr, evicted, w)
		}
	}
}

func TestNonPowerOfTwoWays(t *testing.T) {
	c := MustNew(Config{Name: "w12", SizeBytes: 64 * 12, LineBytes: 64, Ways: 12, HitLatency: 1})
	for i := uint64(0); i < 40; i++ {
		c.Allocate(i, Shared)
	}
	if c.Occupancy() != 12 {
		t.Fatalf("occupancy = %d, want 12", c.Occupancy())
	}
	for i := uint64(28); i < 40; i++ {
		if c.Lookup(i) == Invalid {
			t.Fatalf("line %d of the last 12 allocated is missing", i)
		}
	}
}

func TestForEachValid(t *testing.T) {
	c := MustNew(smallCfg())
	c.Allocate(1, Shared)
	c.Allocate(2, Modified)
	seen := map[uint64]State{}
	c.ForEachValid(func(la uint64, st State) { seen[la] = st })
	if len(seen) != 2 || seen[1] != Shared || seen[2] != Modified {
		t.Fatalf("ForEachValid saw %v", seen)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", st, st.String())
		}
	}
}

// Property: occupancy never exceeds capacity and Lookup always agrees with
// a just-completed Allocate, for random access streams.
func TestQuickOccupancyBound(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(smallCfg())
		capLines := c.NumSets() * c.Config().Ways
		for _, a := range addrs {
			la := uint64(a)
			c.Allocate(la, Shared)
			if c.Lookup(la) == Invalid {
				return false
			}
			if c.Occupancy() > capLines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an evicted victim is no longer present and came from the same
// set as the newly allocated line.
func TestQuickVictimConsistency(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(smallCfg())
		mask := uint64(c.NumSets() - 1)
		for _, a := range addrs {
			la := uint64(a)
			v, evicted := c.Allocate(la, Shared)
			if evicted {
				if c.Lookup(v.LineAddr) != Invalid {
					return false
				}
				if v.LineAddr&mask != la&mask {
					return false
				}
				if v.State == Invalid {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
