// Package cache implements the set-associative cache arrays of the
// simulated memory hierarchy. A Cache models one tag/state array (an L1-I,
// L1-D or private L2); the directory-based coherence protocol that moves
// lines *between* caches lives in package coherence and manipulates line
// states through this package's API.
//
// The baseline configuration follows the paper's Table II: 32 KB 2-way L1s
// with 1-cycle access, 1 MB 16-way L2 with 12-cycle access, 64 B lines
// everywhere, LRU replacement in every array.
package cache

import (
	"fmt"
	"math/bits"

	"offloadsim/internal/stats"
)

// State is the MESI coherence state of a cached line. L1 caches only use
// Invalid/Shared/Modified (the E state is tracked at the L2/directory
// level); the extra state costs nothing here.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: clean, potentially replicated in other caches.
	Shared
	// Exclusive: clean, guaranteed to be the only copy.
	Exclusive
	// Modified: dirty, guaranteed to be the only copy.
	Modified
	// Owned: dirty but replicated — this cache is responsible for
	// supplying the line and eventually writing it back (MOESI only).
	Owned
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// ReplacementPolicy selects a victim way within a set. LRU is the only
// policy modeled and Validate rejects any other value; Config keeps the
// field because canonical configuration keys encode every Config field.
type ReplacementPolicy int

// LRU evicts the least recently used way (the paper's baseline).
const LRU ReplacementPolicy = 0

// Config describes one cache array.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles for a hit in this array
	Policy     ReplacementPolicy
}

// Validate checks structural sanity: power-of-two geometry, at least one
// set and LRU replacement.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if bits.OnesCount(uint(c.LineBytes)) != 1 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by %d-way x %dB lines",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	if c.HitLatency < 0 {
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	}
	if c.Policy != LRU {
		return fmt.Errorf("cache %q: replacement policy %d is not LRU", c.Name, int(c.Policy))
	}
	return nil
}

// Stats aggregates the per-array event counters the experiments consume.
type Stats struct {
	Accesses   stats.Counter
	Hits       stats.Counter
	Misses     stats.Counter
	Evictions  stats.Counter
	Writebacks stats.Counter // dirty victims pushed down/out
	Backinvals stats.Counter // invalidations arriving from coherence
}

// HitRate returns hits/accesses.
func (s *Stats) HitRate() float64 {
	return stats.Ratio(s.Hits.Value(), s.Accesses.Value())
}

// Reset clears all counters (used at epoch boundaries by the tuner).
func (s *Stats) Reset() {
	s.Accesses.Reset()
	s.Hits.Reset()
	s.Misses.Reset()
	s.Evictions.Reset()
	s.Writebacks.Reset()
	s.Backinvals.Reset()
}

// invalidTag marks an empty way in the tag array. Line addresses are
// byte addresses shifted right by at least 6, so no reachable line can
// collide with it; Allocate enforces this.
const invalidTag = ^uint64(0)

// wayRec is the complete per-way bookkeeping record: the tag word and a
// packed word carrying the LRU generation stamp (upper 56 bits) and the
// MESI state (low byte). Every generation stamp is written from a fresh
// gen++ and is therefore unique within the cache, so ordering packed
// words is identical to ordering raw stamps — the state byte can never
// break an LRU tie that does not exist. Keeping the record 16 bytes
// means a hit reads and updates one host cache line instead of three
// parallel arrays.
type wayRec struct {
	tag      uint64 // invalidTag when the way is empty
	useState uint64 // gen<<8 | uint64(state)
}

const stateBits = 8

// Cache is one set-associative tag/state array. It is deliberately a
// *bookkeeping* structure: it records presence and MESI state and chooses
// victims, while latency composition and inter-cache movement are the
// callers' business.
//
// Storage is one flat record array, set-major: set s occupies indexes
// [s*Ways, (s+1)*Ways). The hot-path way scan compares the tag words —
// 16-byte strided, at most four host lines for a 16-way set — with empty
// ways holding a sentinel tag that matches nothing, so presence checks
// never consult state or recency until a hit is found.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      int
	nSets     int
	recs      []wayRec
	gen       uint64

	Stats Stats
}

// New constructs a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(nSets - 1),
		ways:      cfg.Ways,
		nSets:     nSets,
		recs:      make([]wayRec, nSets*cfg.Ways),
	}
	for i := range c.recs {
		c.recs[i].tag = invalidTag
	}
	return c, nil
}

// MustNew is New that panics on config errors; for fixed baseline configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.nSets }

// LineAddr converts a byte address to a line address.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) setIndex(lineAddr uint64) int { return int(lineAddr & c.setMask) }

// find returns the flat index of lineAddr's way, or -1 when absent. The
// scan touches only the contiguous tag words; empty ways hold invalidTag
// and match nothing.
func (c *Cache) find(lineAddr uint64) int {
	base := c.setIndex(lineAddr) * c.ways
	recs := c.recs[base : base+c.ways]
	for i := range recs {
		if recs[i].tag == lineAddr {
			return base + i
		}
	}
	return -1
}

// Lookup returns the state of the line containing addr (line-address
// domain) without updating replacement metadata or counters. Invalid means
// absent.
func (c *Cache) Lookup(lineAddr uint64) State {
	if i := c.find(lineAddr); i >= 0 {
		return State(c.recs[i].useState)
	}
	return Invalid
}

// Probe returns the state of the line containing lineAddr, recording a
// use (replacement touch) when the line is present. It is the hot-path
// combination of a lookup and an LRU touch in one way scan: every
// present-line access updates recency, and Invalid means absent.
func (c *Cache) Probe(lineAddr uint64) State {
	i := c.find(lineAddr)
	if i < 0 {
		return Invalid
	}
	c.gen++
	st := State(c.recs[i].useState)
	c.recs[i].useState = c.gen<<stateBits | uint64(st)
	return st
}

// SetState transitions the MESI state of a present line (e.g. S->M on an
// upgrade, M->S on a downgrade from the directory). It panics if the line
// is absent — state changes on absent lines indicate a protocol bug.
func (c *Cache) SetState(lineAddr uint64, st State) {
	if st == Invalid {
		c.Invalidate(lineAddr)
		return
	}
	i := c.find(lineAddr)
	if i < 0 {
		panic(fmt.Sprintf("cache %q: SetState(%v) of absent line %#x", c.cfg.Name, st, lineAddr))
	}
	c.recs[i].useState = c.recs[i].useState&^(1<<stateBits-1) | uint64(st)
}

// Invalidate removes the line if present and returns its previous state.
// Used both for coherence invalidations and for inclusive back-invalidates.
func (c *Cache) Invalidate(lineAddr uint64) State {
	i := c.find(lineAddr)
	if i < 0 {
		return Invalid
	}
	prev := State(c.recs[i].useState)
	c.recs[i] = wayRec{tag: invalidTag}
	c.Stats.Backinvals.Inc()
	return prev
}

// Victim describes a line displaced by Allocate.
type Victim struct {
	LineAddr uint64
	State    State
}

// Allocate inserts lineAddr in state st, choosing and returning a victim
// if the set was full. A returned Victim with State != Invalid must be
// handled by the caller (writeback for Modified, directory notification
// for all). Allocating an already-present line just updates its state.
func (c *Cache) Allocate(lineAddr uint64, st State) (Victim, bool) {
	if st == Invalid {
		panic(fmt.Sprintf("cache %q: Allocate in Invalid state", c.cfg.Name))
	}
	if lineAddr == invalidTag {
		panic(fmt.Sprintf("cache %q: Allocate of reserved line address", c.cfg.Name))
	}
	si := c.setIndex(lineAddr)
	base := si * c.ways
	// One scan finds both an already-present line (refresh) and the first
	// free way. The free way matters only when the line is absent, and a
	// present line is unique in its set, so the merged scan decides
	// exactly what the two separate scans did.
	free := -1
	recs := c.recs[base : base+c.ways]
	for w := range recs {
		if recs[w].tag == lineAddr {
			c.gen++
			recs[w].useState = c.gen<<stateBits | uint64(st)
			return Victim{}, false
		}
		if free < 0 && recs[w].tag == invalidTag {
			free = w
		}
	}
	if free >= 0 {
		c.fill(base+free, lineAddr, st)
		return Victim{}, false
	}
	// Evict.
	vi := base + c.chooseVictim(si)
	v := Victim{LineAddr: c.recs[vi].tag, State: State(c.recs[vi].useState)}
	c.Stats.Evictions.Inc()
	if v.State == Modified || v.State == Owned {
		c.Stats.Writebacks.Inc()
	}
	c.fill(vi, lineAddr, st)
	return v, true
}

// fill writes lineAddr into flat way index i as the set's most recent use.
func (c *Cache) fill(i int, lineAddr uint64, st State) {
	c.gen++
	c.recs[i] = wayRec{tag: lineAddr, useState: c.gen<<stateBits | uint64(st)}
}

// chooseVictim returns the least recently used way of set si. Ordering
// the packed words is ordering the generation stamps: every stamp came
// from a unique gen++, so the state byte never decides a comparison.
func (c *Cache) chooseVictim(si int) int {
	base := si * c.ways
	recs := c.recs[base : base+c.ways]
	best := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].useState < recs[best].useState {
			best = i
		}
	}
	return best
}

// Occupancy returns the number of valid lines, for diagnostics and tests.
func (c *Cache) Occupancy() int {
	n := 0
	for i := range c.recs {
		if c.recs[i].tag != invalidTag {
			n++
		}
	}
	return n
}

// ForEachValid calls fn for every valid line (diagnostics / invariant
// checking in tests). Iteration order is set-major, way-minor.
func (c *Cache) ForEachValid(fn func(lineAddr uint64, st State)) {
	for i := range c.recs {
		if c.recs[i].tag != invalidTag {
			fn(c.recs[i].tag, State(c.recs[i].useState))
		}
	}
}

// Flush invalidates every line, returning how many were dirty. Used when a
// simulated workload is reset between epochs in tests.
func (c *Cache) Flush() (dirty int) {
	for i := range c.recs {
		if st := State(c.recs[i].useState); st == Modified || st == Owned {
			dirty++
		}
		c.recs[i] = wayRec{tag: invalidTag}
	}
	return dirty
}
