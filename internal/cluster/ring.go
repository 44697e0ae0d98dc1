// Package cluster turns offsimd into a multi-replica fleet. It applies
// the paper's thesis — route work to the core that owns the relevant
// state — one level up: each replica owns a shard of canonical-config
// space (a consistent-hash ring over sim.CanonicalKey), so a shard's
// result cache lives exactly where its jobs land. The package provides
// the deterministic hash ring, static membership parsing, an HTTP peer
// client with single-flight deduplication (the two-tier cache's remote
// leg), the work-stealing victim picker, and the sweep-as-a-service
// coordinator that fans a Figure-4-style grid across the fleet.
//
// Membership is static configuration for now (no gossip); every piece
// of coordination is plain HTTP between replicas, so a whole fleet can
// run in-process in tests. Determinism is preserved end to end: routing
// is a pure function of the canonical key and the sorted member list,
// and results are byte-identical regardless of which replica computes
// them.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the ring's virtual-node count per member.
// 128 vnodes keep the max/min owned-key ratio under ~2 up to 16
// replicas (see TestRingBalance) while membership changes stay cheap.
const DefaultVNodes = 128

// Ring is a consistent-hash ring mapping canonical config keys to
// replica addresses. Ownership is a pure function of the sorted member
// list: two processes given the same membership build bit-identical
// rings, so routing never depends on process history (determinism
// across restarts), and a single join or leave moves only the keys
// adjacent to the changed member's vnodes (bounded movement, ~K/n of K
// keys for n members).
type Ring struct {
	members []string // sorted, deduplicated
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over members with DefaultVNodes per member.
// Members are deduplicated and sorted, so any permutation of the same
// set yields an identical ring.
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	seen := make(map[string]bool, len(members))
	sorted := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			sorted = append(sorted, m)
		}
	}
	sort.Strings(sorted)

	r := &Ring{
		members: sorted,
		points:  make([]ringPoint, 0, len(sorted)*DefaultVNodes),
	}
	for _, m := range sorted {
		for i := 0; i < DefaultVNodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, i)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Position collisions between members resolve by name so the
		// ring stays a pure function of the member set.
		return a.member < b.member
	})
	return r, nil
}

// Owner returns the member that owns key: the first vnode clockwise
// from the key's hash position.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest vnode
	}
	return r.points[i].member
}

// Members returns the sorted member list.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int { return len(r.members) }

// hash64 is the first eight bytes of SHA-256: stable across processes,
// architectures and Go releases (restart-deterministic ownership), and
// well-dispersed even for near-identical inputs like "addr#17" vnode
// labels — weak mixing (FNV-style) clumps vnodes and skews shards.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
