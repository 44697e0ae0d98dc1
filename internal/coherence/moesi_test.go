package coherence

import (
	"testing"
	"testing/quick"

	"offloadsim/internal/cache"
)

func moesiConfig(nodes int) Config {
	cfg := tinyConfig(nodes)
	cfg.Protocol = MOESI
	return cfg
}

func TestMOESIReadSharingAvoidsWriteback(t *testing.T) {
	s := MustNew(moesiConfig(2))
	s.Write(0, 100) // node 0: M
	s.Read(1, 100)  // MOESI: owner keeps dirty data in O
	if s.L2(0).Lookup(100) != cache.Owned {
		t.Fatalf("owner state = %v, want O", s.L2(0).Lookup(100))
	}
	if s.L2(1).Lookup(100) != cache.Shared {
		t.Fatalf("reader state = %v, want S", s.L2(1).Lookup(100))
	}
	if s.Memory().Writebacks() != 0 {
		t.Fatalf("MOESI read sharing wrote back %d times", s.Memory().Writebacks())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMESIReadSharingDoesWriteBack(t *testing.T) {
	s := MustNew(tinyConfig(2)) // MESI default
	s.Write(0, 100)
	s.Read(1, 100)
	if s.Memory().Writebacks() != 1 {
		t.Fatalf("MESI read sharing wrote back %d times, want 1", s.Memory().Writebacks())
	}
	if s.L2(0).Lookup(100) != cache.Shared {
		t.Fatal("MESI owner should downgrade to S")
	}
}

func TestMOESIOwnerServesSubsequentReaders(t *testing.T) {
	s := MustNew(moesiConfig(3))
	s.Write(0, 100)
	s.Read(1, 100)
	c2cBefore := s.Stats.C2CTransfers.Value()
	s.Read(2, 100) // must come cache-to-cache from the owner, not memory
	if s.Stats.C2CTransfers.Value() != c2cBefore+1 {
		t.Fatal("third reader not served by the owner")
	}
	if s.Memory().Writebacks() != 0 {
		t.Fatal("writeback despite owned sharing")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIOwnedEvictionWritesBack(t *testing.T) {
	s := MustNew(moesiConfig(2))
	sets := uint64(s.L2(0).NumSets())
	s.Write(0, 0)
	s.Read(1, 0) // node 0 owns line 0 in O
	// Conflict-evict line 0 from node 0 (2-way set).
	s.Read(0, sets)
	s.Read(0, 2*sets)
	s.Read(0, 3*sets)
	if s.Memory().Writebacks() == 0 {
		t.Fatal("evicting an Owned line must write back")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The survivor's copy must still be readable as a plain hit.
	if _, hit := s.Read(1, 0); !hit {
		t.Fatal("remaining sharer lost its copy")
	}
}

func TestMOESIOwnerWriteUpgrades(t *testing.T) {
	s := MustNew(moesiConfig(2))
	s.Write(0, 100)
	s.Read(1, 100) // 0: O, 1: S
	_, hit := s.Write(0, 100)
	if hit {
		t.Fatal("O->M upgrade should not be a free hit (sharers must invalidate)")
	}
	if s.L2(0).Lookup(100) != cache.Modified {
		t.Fatal("owner not Modified after upgrade")
	}
	if s.L2(1).Lookup(100) != cache.Invalid {
		t.Fatal("sharer survived owner upgrade")
	}
	if s.Memory().Writebacks() != 0 {
		t.Fatal("dirty ownership migration should not write back")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESISharerWriteStealsOwnership(t *testing.T) {
	s := MustNew(moesiConfig(3))
	s.Write(0, 100)
	s.Read(1, 100)
	s.Read(2, 100) // 0: O, 1: S, 2: S
	s.Write(1, 100)
	if s.L2(1).Lookup(100) != cache.Modified {
		t.Fatal("writer not Modified")
	}
	if s.L2(0).Lookup(100) != cache.Invalid || s.L2(2).Lookup(100) != cache.Invalid {
		t.Fatal("old holders survived")
	}
	if s.Memory().Writebacks() != 0 {
		t.Fatal("ownership migration wrote back")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMOESIWriteMissFromOutside(t *testing.T) {
	s := MustNew(moesiConfig(3))
	s.Write(0, 100)
	s.Read(1, 100) // 0: O, 1: S
	s.Write(2, 100)
	if s.L2(2).Lookup(100) != cache.Modified {
		t.Fatal("outside writer not Modified")
	}
	if s.L2(0).Lookup(100) != cache.Invalid || s.L2(1).Lookup(100) != cache.Invalid {
		t.Fatal("holders survived outside write")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: MOESI preserves all protocol invariants under random traffic.
func TestQuickMOESIInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNew(moesiConfig(3))
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

// Property: MOESI never writes back more than MESI on the same traffic.
func TestQuickMOESIWritebackBound(t *testing.T) {
	f := func(ops []uint16) bool {
		mesi := MustNew(tinyConfig(2))
		moesi := MustNew(moesiConfig(2))
		for _, op := range ops {
			node := int(op) % 2
			line := uint64((op >> 1) % 8)
			if op&0x8000 != 0 {
				mesi.Write(node, line)
				moesi.Write(node, line)
			} else {
				mesi.Read(node, line)
				moesi.Read(node, line)
			}
		}
		return moesi.Memory().Writebacks() <= mesi.Memory().Writebacks()
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolString(t *testing.T) {
	if MESI.String() != "MESI" || MOESI.String() != "MOESI" {
		t.Fatal("protocol names wrong")
	}
}

// Property: MESI and MOESI are performance-transparent to the caches —
// the same access trace produces the identical hit/miss sequence; the
// protocols differ only in memory writeback traffic.
func TestQuickProtocolHitMissEquivalence(t *testing.T) {
	f := func(ops []uint16) bool {
		mesi := MustNew(tinyConfig(3))
		moesi := MustNew(moesiConfig(3))
		for _, op := range ops {
			node := int(op) % 3
			line := uint64((op >> 2) % 16)
			var hitA, hitB bool
			if op&0x8000 != 0 {
				_, hitA = mesi.Write(node, line)
				_, hitB = moesi.Write(node, line)
			} else {
				_, hitA = mesi.Read(node, line)
				_, hitB = moesi.Read(node, line)
			}
			if hitA != hitB {
				return false
			}
		}
		return mesi.CheckInvariants() == nil && moesi.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
