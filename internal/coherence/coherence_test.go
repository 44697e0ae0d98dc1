package coherence

import (
	"testing"
	"testing/quick"

	"offloadsim/internal/cache"
	"offloadsim/internal/interconnect"
	"offloadsim/internal/memory"
)

// tinyConfig returns a 2-node system with small caches so eviction paths
// are exercised quickly.
func tinyConfig(nodes int) Config {
	return Config{
		NumNodes: nodes,
		L2: cache.Config{
			Name: "L2", SizeBytes: 4096, LineBytes: 64, Ways: 2, HitLatency: 12,
		},
		DirectoryLatency: 10,
		Fabric:           interconnect.Config{LinkLatency: 4, RouterLatency: 1},
		Memory:           memory.Config{Latency: 350},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumNodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = DefaultConfig()
	bad.NumNodes = 65
	if err := bad.Validate(); err == nil {
		t.Fatal("65 nodes accepted (sharers bitmask is 64-wide)")
	}
	bad = DefaultConfig()
	bad.DirectoryLatency = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative directory latency accepted")
	}
}

func TestColdReadFillsExclusive(t *testing.T) {
	s := MustNew(tinyConfig(2))
	lat, hit := s.Read(0, 100)
	if hit {
		t.Fatal("cold read reported hit")
	}
	// 12 (L2 tag) + 5 (req) + 10 (dir) + 350 (mem) + 5 (data) = 382.
	if lat != 382 {
		t.Fatalf("cold read latency = %d, want 382", lat)
	}
	if s.L2(0).Lookup(100) != cache.Exclusive {
		t.Fatalf("cold fill state = %v, want E", s.L2(0).Lookup(100))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadHitIsL2Latency(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Read(0, 100)
	lat, hit := s.Read(0, 100)
	if !hit || lat != 12 {
		t.Fatalf("hit=%v lat=%d, want true/12", hit, lat)
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Read(0, 100) // E
	lat, hit := s.Write(0, 100)
	if !hit || lat != 12 {
		t.Fatalf("E->M upgrade should be a local hit, got hit=%v lat=%d", hit, lat)
	}
	if s.L2(0).Lookup(100) != cache.Modified {
		t.Fatal("E->M upgrade lost")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSharingDowngradesOwner(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Write(0, 100) // node 0: M
	lat, hit := s.Read(1, 100)
	if hit {
		t.Fatal("remote read reported hit")
	}
	// c2c: 12 + 5(req) + 10(dir) + 5(fwd) + 12(owner tag) + 5(data) = 49.
	if lat != 49 {
		t.Fatalf("c2c read latency = %d, want 49", lat)
	}
	if s.L2(0).Lookup(100) != cache.Shared || s.L2(1).Lookup(100) != cache.Shared {
		t.Fatal("both copies should be Shared after read sharing")
	}
	if s.Stats.C2CTransfers.Value() != 1 || s.Stats.DirtyC2C.Value() != 1 {
		t.Fatalf("c2c=%d dirty=%d, want 1/1", s.Stats.C2CTransfers.Value(), s.Stats.DirtyC2C.Value())
	}
	if s.Memory().Writebacks() != 1 {
		t.Fatal("dirty downgrade should write back")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := MustNew(tinyConfig(3))
	s.Read(0, 100)
	s.Read(1, 100)
	s.Read(2, 100) // all Shared
	_, hit := s.Write(0, 100)
	if hit {
		t.Fatal("upgrade from S should not be a pure hit")
	}
	if s.L2(0).Lookup(100) != cache.Modified {
		t.Fatal("writer not Modified")
	}
	if s.L2(1).Lookup(100) != cache.Invalid || s.L2(2).Lookup(100) != cache.Invalid {
		t.Fatal("sharers not invalidated")
	}
	if s.Stats.Invalidations.Value() != 2 {
		t.Fatalf("invalidations = %d, want 2", s.Stats.Invalidations.Value())
	}
	if s.Stats.UpgradeMisses.Value() != 1 {
		t.Fatalf("upgrade misses = %d, want 1", s.Stats.UpgradeMisses.Value())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteStealsOwnership(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Write(0, 100) // node 0: M
	_, hit := s.Write(1, 100)
	if hit {
		t.Fatal("remote write reported hit")
	}
	if s.L2(0).Lookup(100) != cache.Invalid {
		t.Fatal("previous owner retained copy")
	}
	if s.L2(1).Lookup(100) != cache.Modified {
		t.Fatal("new owner not Modified")
	}
	if s.Stats.DirtyC2C.Value() != 1 {
		t.Fatal("dirty ownership transfer not counted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPingPong(t *testing.T) {
	// The N=0 pathology: two nodes alternately writing one line.
	s := MustNew(tinyConfig(2))
	for i := 0; i < 10; i++ {
		s.Write(i%2, 100)
	}
	// First write is a cold miss; the other 9 are ownership transfers.
	if got := s.Stats.C2CTransfers.Value(); got != 9 {
		t.Fatalf("ping-pong c2c transfers = %d, want 9", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionNotifiesDirectory(t *testing.T) {
	s := MustNew(tinyConfig(2))
	sets := uint64(s.L2(0).NumSets())
	// Fill one set beyond capacity (2 ways) with dirty lines.
	s.Write(0, 0)
	s.Write(0, sets)
	s.Write(0, 2*sets) // evicts line 0
	if s.Memory().Writebacks() == 0 {
		t.Fatal("dirty eviction did not write back")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The evicted line must be re-fetchable from memory (uncached).
	lat, _ := s.Read(0, 0)
	if lat < 350 {
		t.Fatalf("re-read of evicted line latency %d; expected a memory fill", lat)
	}
}

func TestL1BackInvalidationHook(t *testing.T) {
	s := MustNew(tinyConfig(2))
	var dropped []uint64
	s.RegisterL1Hook(0, func(la uint64) { dropped = append(dropped, la) })
	s.Read(0, 100)
	s.Write(1, 100) // invalidates node 0's copy
	if len(dropped) != 1 || dropped[0] != 100 {
		t.Fatalf("back-invalidation hook saw %v, want [100]", dropped)
	}
}

func TestL1HookFiresOnEviction(t *testing.T) {
	s := MustNew(tinyConfig(2))
	count := 0
	s.RegisterL1Hook(0, func(uint64) { count++ })
	sets := uint64(s.L2(0).NumSets())
	s.Read(0, 0)
	s.Read(0, sets)
	s.Read(0, 2*sets) // evicts
	if count != 1 {
		t.Fatalf("hook fired %d times on eviction, want 1", count)
	}
}

func TestAggregateL2HitRate(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Read(0, 100) // miss
	s.Read(0, 100) // hit
	s.Read(1, 200) // miss
	got := s.AggregateL2HitRate([]int{0, 1})
	if got != 1.0/3.0 {
		t.Fatalf("aggregate hit rate = %v, want 1/3", got)
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	s := MustNew(tinyConfig(2))
	s.Read(0, 100)
	s.ResetStats()
	if s.L2(0).Stats.Accesses.Value() != 0 {
		t.Fatal("reset did not clear L2 stats")
	}
	if _, hit := s.Read(0, 100); !hit {
		t.Fatal("reset evicted cache contents")
	}
}

func TestDirectoryShrinks(t *testing.T) {
	s := MustNew(tinyConfig(2))
	sets := uint64(s.L2(0).NumSets())
	for i := uint64(0); i < 8; i++ {
		s.Read(0, i*sets) // conflict-evict through one set
	}
	// Only 2 ways can be resident; directory must have dropped the rest.
	if got := s.DirectorySize(); got > 2 {
		t.Fatalf("directory holds %d entries for a 2-way set, want <= 2", got)
	}
}

// Property: after any sequence of reads/writes from random nodes to a
// small line pool, all protocol invariants hold — single-writer, directory
// and caches agree exactly.
func TestQuickProtocolInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNew(tinyConfig(3))
		for _, op := range ops {
			node := int(op) % 3
			line := uint64((op >> 2) % 16)
			if op&0x8000 != 0 {
				s.Write(node, line)
			} else {
				s.Read(node, line)
			}
		}
		return s.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: latency is always at least the L2 hit latency and hits are
// exactly the L2 hit latency.
func TestQuickLatencyBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNew(tinyConfig(2))
		for _, op := range ops {
			node := int(op) % 2
			line := uint64((op >> 1) % 8)
			var lat int
			var hit bool
			if op&0x8000 != 0 {
				lat, hit = s.Write(node, line)
			} else {
				lat, hit = s.Read(node, line)
			}
			if lat < 12 {
				return false
			}
			if hit && lat != 12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
