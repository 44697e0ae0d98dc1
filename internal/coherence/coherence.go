// Package coherence implements the directory-based MESI protocol that
// keeps the simulated private L2 caches coherent (§IV: "two such cores
// with private L2s which are kept coherent via a directory based protocol
// and a simple point-to-point interconnect fabric ... Our system models
// directory lookup, cache-to-cache transfers, and coherence invalidation
// overheads independently").
//
// The System owns the per-node L2 arrays, the directory, the fabric and
// main memory. Cores call Read/Write with their node id and a line
// address; the returned latency folds in L2 access, directory lookup,
// cache-to-cache forwarding, invalidation round trips and memory fills.
// Inclusive L1s are kept consistent through registered back-invalidation
// hooks.
//
// This protocol is the load-bearing substrate for the paper's key result:
// the N=0 collapse in Figure 4 is caused by user/OS shared lines
// ping-ponging between the user core's and OS core's caches, and that
// cost emerges here, not from any hard-coded penalty.
package coherence

import (
	"fmt"
	"slices"

	"offloadsim/internal/cache"
	"offloadsim/internal/interconnect"
	"offloadsim/internal/memory"
	"offloadsim/internal/stats"
)

// Protocol selects the coherence protocol family.
type Protocol int

const (
	// MESI is the paper's baseline: a dirty line read by another cache
	// is written back to memory and shared clean.
	MESI Protocol = iota
	// MOESI adds the Owned state: a dirty line can be shared without a
	// memory writeback, with the owner responsible for supplying it and
	// writing it back on eviction. Provided as an ablation of the
	// coherence cost off-loading pays for user/OS shared data.
	MOESI
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if p == MOESI {
		return "MOESI"
	}
	return "MESI"
}

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirUncached dirState = iota
	dirShared
	dirExclusive // E or M at the owner; the owner upgrades E->M silently
	dirOwned     // MOESI: dirty at the owner, replicated among sharers
)

// Config assembles a coherent multi-node memory system.
type Config struct {
	// NumNodes is the number of private-L2 nodes (user cores + OS core).
	NumNodes int
	// Protocol selects MESI (paper baseline) or MOESI.
	Protocol Protocol
	// L2 is the per-node L2 geometry. Name is suffixed with the node id.
	L2 cache.Config
	// DirectoryLatency is the directory lookup/update cost in cycles.
	DirectoryLatency int
	// Fabric times the point-to-point messages.
	Fabric interconnect.Config
	// Memory is the backing store model.
	Memory memory.Config
}

// DefaultL2Config returns the paper's Table II L2: 1 MB, 16-way, 12-cycle,
// 64 B lines.
func DefaultL2Config() cache.Config {
	return cache.Config{
		Name:       "L2",
		SizeBytes:  1 << 20,
		LineBytes:  64,
		Ways:       16,
		HitLatency: 12,
		Policy:     cache.LRU,
	}
}

// DefaultConfig returns a two-node (user + OS core) Table II system.
func DefaultConfig() Config {
	return Config{
		NumNodes:         2,
		L2:               DefaultL2Config(),
		DirectoryLatency: 10,
		Fabric:           interconnect.DefaultConfig(),
		Memory:           memory.DefaultConfig(),
	}
}

// MaxNodes bounds Config.NumNodes: the sharer sets are 64-bit masks.
const MaxNodes = 64

// Validate checks the composite configuration.
func (c Config) Validate() error {
	if c.NumNodes < 1 || c.NumNodes > MaxNodes {
		return fmt.Errorf("coherence: NumNodes %d out of [1,%d]", c.NumNodes, MaxNodes)
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.DirectoryLatency < 0 {
		return fmt.Errorf("coherence: negative directory latency")
	}
	if err := c.Fabric.Validate(); err != nil {
		return err
	}
	return c.Memory.Validate()
}

// Stats aggregates protocol-level events across the system.
type Stats struct {
	DirLookups      stats.Counter
	C2CTransfers    stats.Counter // lines supplied cache-to-cache
	DirtyC2C        stats.Counter // c2c transfers of Modified data
	Invalidations   stats.Counter // individual invalidation messages
	UpgradeMisses   stats.Counter // S->M upgrades
	MemoryFills     stats.Counter
	CoherenceMisses stats.Counter // misses served by another cache
}

// System is the coherent memory system shared by all simulated cores.
type System struct {
	cfg     Config
	l2s     []*cache.Cache
	dir     *dirTable
	fabric  *interconnect.Fabric
	mem     *memory.Memory
	l1Hooks [][]func(lineAddr uint64)

	// scratch is CheckInvariants' reusable presence buffer, so repeated
	// invariant sweeps (debug builds, tests, epoch checks) allocate
	// nothing in steady state.
	scratch []presenceRec

	// epochEvents and epochLines are ReconcileEpoch's reusable merge and
	// fix-up buffers (see epoch.go), allocation-free in steady state.
	epochEvents []epochEvent
	epochLines  []uint64

	Stats Stats
}

// New builds the system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg: cfg,
		// The directory tracks at most the aggregate cached line count,
		// so size the table to the combined L2 capacity up front and it
		// never grows in steady state.
		dir:     newDirTable(cfg.NumNodes * cfg.L2.SizeBytes / cfg.L2.LineBytes),
		fabric:  interconnect.New(cfg.Fabric),
		mem:     memory.New(cfg.Memory),
		l1Hooks: make([][]func(uint64), cfg.NumNodes),
	}
	for i := 0; i < cfg.NumNodes; i++ {
		l2cfg := cfg.L2
		l2cfg.Name = fmt.Sprintf("%s%d", cfg.L2.Name, i)
		l2, err := cache.New(l2cfg)
		if err != nil {
			return nil, err
		}
		s.l2s = append(s.l2s, l2)
	}
	return s, nil
}

// MustNew is New that panics on error, for fixed experiment configs.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// L2 exposes node n's L2 array (for stats collection and tests).
func (s *System) L2(n int) *cache.Cache { return s.l2s[n] }

// Memory exposes the backing store (for stats).
func (s *System) Memory() *memory.Memory { return s.mem }

// RegisterL1Hook attaches a back-invalidation callback for node. Whenever a
// line leaves node's L2 (eviction or coherence invalidation), every hook on
// that node is called so inclusive L1s can drop it.
func (s *System) RegisterL1Hook(node int, hook func(lineAddr uint64)) {
	s.l1Hooks[node] = append(s.l1Hooks[node], hook)
}

func (s *System) backInvalidate(node int, lineAddr uint64) {
	for _, h := range s.l1Hooks[node] {
		h(lineAddr)
	}
}

func (s *System) entry(lineAddr uint64) *dirEntry {
	return s.dir.getOrCreate(lineAddr)
}

func (s *System) dropIfUncached(e *dirEntry) {
	if e.state == dirUncached || (e.state == dirShared && e.sharers == 0) {
		s.dir.del(e)
	}
}

// handleVictim processes an L2 eviction at node: directory bookkeeping,
// posted writeback for dirty victims, and L1 back-invalidation to preserve
// inclusion.
func (s *System) handleVictim(node int, v cache.Victim) {
	e := s.dir.get(v.LineAddr)
	if e != nil {
		switch e.state {
		case dirShared:
			e.sharers &^= 1 << uint(node)
			if e.sharers == 0 {
				e.state = dirUncached
			}
		case dirExclusive:
			if int(e.owner) == node {
				e.state = dirUncached
			}
		case dirOwned:
			e.sharers &^= 1 << uint(node)
			if node == int(e.owner) {
				// The dirty owner leaves: its writeback cleans memory,
				// and the remaining copies (if any) are plain Shared.
				if e.sharers == 0 {
					e.state = dirUncached
				} else {
					e.state = dirShared
				}
			}
			// A departing non-owner sharer leaves the owner (still
			// dirty) in place; the entry stays dirOwned.
		}
		s.dropIfUncached(e)
	}
	if v.State == cache.Modified || v.State == cache.Owned {
		s.mem.Writeback()
	}
	s.backInvalidate(node, v.LineAddr)
}

// Read performs a coherent read of lineAddr by node and returns the access
// latency in cycles. The bool result reports whether the L2 hit.
//
// Read stays out of line. Under default.pgo it fits the hot inlining
// budget, and PGO would devirtualize cpu.Core's port call and inline it
// into Core.missRef, pushing missRef past that budget. RunSegment's
// replay loop relies on inlining missRef instead.
//
//go:noinline
func (s *System) Read(node int, lineAddr uint64) (latency int, hit bool) {
	l2 := s.l2s[node]
	l2.Stats.Accesses.Inc()
	// Probe = lookup + recency touch in one way scan; every present line
	// is a read hit.
	if st := l2.Probe(lineAddr); st != cache.Invalid {
		l2.Stats.Hits.Inc()
		return l2.Config().HitLatency, true
	}
	l2.Stats.Misses.Inc()

	// Tag check, then a directory transaction over the fabric.
	lat := l2.Config().HitLatency
	lat += s.fabric.Send(interconnect.ReqMsg, 1)
	lat += s.cfg.DirectoryLatency
	s.Stats.DirLookups.Inc()

	e := s.entry(lineAddr)
	var fill cache.State
	switch e.state {
	case dirUncached:
		lat += s.mem.Read()
		s.Stats.MemoryFills.Inc()
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		fill = cache.Exclusive
		e.state = dirExclusive
		e.owner = int16(node)
		e.sharers = 0

	case dirShared:
		// Clean shared data is supplied by memory; sharers keep their
		// copies.
		lat += s.mem.Read()
		s.Stats.MemoryFills.Inc()
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		fill = cache.Shared
		e.sharers |= 1 << uint(node)

	case dirExclusive:
		// Forward to the owner, which supplies the line cache-to-cache.
		owner := int(e.owner)
		lat += s.fabric.Send(interconnect.FwdMsg, 1)
		lat += s.l2s[owner].Config().HitLatency
		ost := s.l2s[owner].Lookup(lineAddr)
		if ost == cache.Invalid {
			panic(fmt.Sprintf("coherence: directory owner %d lacks line %#x", owner, lineAddr))
		}
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		s.Stats.C2CTransfers.Inc()
		s.Stats.CoherenceMisses.Inc()
		fill = cache.Shared
		if ost == cache.Modified {
			s.Stats.DirtyC2C.Inc()
			if s.cfg.Protocol == MOESI {
				// MOESI: the owner keeps the dirty line in Owned and
				// remains responsible for it — no memory writeback.
				s.l2s[owner].SetState(lineAddr, cache.Owned)
				e.state = dirOwned
				e.owner = int16(owner)
				e.sharers = (1 << uint(owner)) | (1 << uint(node))
				break
			}
			// MESI: dirty data is written back (posted) and shared clean.
			s.mem.Writeback()
		}
		s.l2s[owner].SetState(lineAddr, cache.Shared)
		e.state = dirShared
		e.sharers = (1 << uint(owner)) | (1 << uint(node))

	case dirOwned:
		// MOESI: the owner supplies the dirty line; the requester joins
		// the sharer set.
		owner := int(e.owner)
		lat += s.fabric.Send(interconnect.FwdMsg, 1)
		lat += s.l2s[owner].Config().HitLatency
		if s.l2s[owner].Lookup(lineAddr) != cache.Owned {
			panic(fmt.Sprintf("coherence: recorded owner %d does not hold %#x in O", owner, lineAddr))
		}
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		s.Stats.C2CTransfers.Inc()
		s.Stats.DirtyC2C.Inc()
		s.Stats.CoherenceMisses.Inc()
		fill = cache.Shared
		e.sharers |= 1 << uint(node)
	}

	if v, evicted := l2.Allocate(lineAddr, fill); evicted {
		s.handleVictim(node, v)
	}
	return lat, false
}

// Write performs a coherent write of lineAddr by node and returns the
// access latency. The bool result reports whether the L2 hit with write
// permission already held.
func (s *System) Write(node int, lineAddr uint64) (latency int, hit bool) {
	l2 := s.l2s[node]
	l2.Stats.Accesses.Inc()
	// Probe touches any present line up front (single way scan); each
	// switch arm below previously performed the same touch itself.
	switch l2.Probe(lineAddr) {
	case cache.Modified:
		l2.Stats.Hits.Inc()
		return l2.Config().HitLatency, true
	case cache.Exclusive:
		// Silent E->M upgrade; the directory already records exclusivity.
		l2.Stats.Hits.Inc()
		l2.SetState(lineAddr, cache.Modified)
		return l2.Config().HitLatency, true
	case cache.Shared:
		// Upgrade miss: invalidate the other sharers (in MOESI this may
		// include an Owned copy; dirty ownership migrates to the writer
		// with no writeback, since all sharers hold the same data).
		l2.Stats.Misses.Inc()
		s.Stats.UpgradeMisses.Inc()
		lat := l2.Config().HitLatency
		lat += s.fabric.Send(interconnect.ReqMsg, 1)
		lat += s.cfg.DirectoryLatency
		s.Stats.DirLookups.Inc()
		e := s.entry(lineAddr)
		lat += s.invalidateSharers(e, node, lineAddr)
		e.state = dirExclusive
		e.owner = int16(node)
		e.sharers = 0
		l2.SetState(lineAddr, cache.Modified)
		return lat, false
	case cache.Owned:
		// MOESI: the owner writes its own dirty shared line — invalidate
		// the other sharers and move O->M locally.
		l2.Stats.Misses.Inc()
		s.Stats.UpgradeMisses.Inc()
		lat := l2.Config().HitLatency
		lat += s.fabric.Send(interconnect.ReqMsg, 1)
		lat += s.cfg.DirectoryLatency
		s.Stats.DirLookups.Inc()
		e := s.entry(lineAddr)
		lat += s.invalidateSharers(e, node, lineAddr)
		e.state = dirExclusive
		e.owner = int16(node)
		e.sharers = 0
		l2.SetState(lineAddr, cache.Modified)
		return lat, false
	}
	// Write miss.
	l2.Stats.Misses.Inc()
	lat := l2.Config().HitLatency
	lat += s.fabric.Send(interconnect.ReqMsg, 1)
	lat += s.cfg.DirectoryLatency
	s.Stats.DirLookups.Inc()

	e := s.entry(lineAddr)
	switch e.state {
	case dirUncached:
		lat += s.mem.Read()
		s.Stats.MemoryFills.Inc()
		lat += s.fabric.Send(interconnect.DataMsg, 1)

	case dirShared:
		// Invalidate all sharers, fill from memory.
		lat += s.invalidateSharers(e, node, lineAddr)
		lat += s.mem.Read()
		s.Stats.MemoryFills.Inc()
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		s.Stats.CoherenceMisses.Inc()

	case dirExclusive:
		// Transfer ownership: the current owner invalidates its copy and
		// forwards the (possibly dirty) line.
		owner := int(e.owner)
		lat += s.fabric.Send(interconnect.FwdMsg, 1)
		lat += s.l2s[owner].Config().HitLatency
		ost := s.l2s[owner].Lookup(lineAddr)
		if ost == cache.Invalid {
			panic(fmt.Sprintf("coherence: directory owner %d lacks line %#x", owner, lineAddr))
		}
		if ost == cache.Modified {
			s.Stats.DirtyC2C.Inc()
		}
		s.l2s[owner].Invalidate(lineAddr)
		s.backInvalidate(owner, lineAddr)
		s.Stats.Invalidations.Inc()
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		s.Stats.C2CTransfers.Inc()
		s.Stats.CoherenceMisses.Inc()

	case dirOwned:
		// MOESI write miss: the owner forwards its dirty line and every
		// holder invalidates; dirty ownership moves to the writer.
		owner := int(e.owner)
		lat += s.fabric.Send(interconnect.FwdMsg, 1)
		lat += s.l2s[owner].Config().HitLatency
		if s.l2s[owner].Lookup(lineAddr) != cache.Owned {
			panic(fmt.Sprintf("coherence: recorded owner %d does not hold %#x in O", owner, lineAddr))
		}
		s.Stats.DirtyC2C.Inc()
		lat += s.invalidateSharers(e, node, lineAddr)
		lat += s.fabric.Send(interconnect.DataMsg, 1)
		s.Stats.C2CTransfers.Inc()
		s.Stats.CoherenceMisses.Inc()
	}
	e.state = dirExclusive
	e.owner = int16(node)
	e.sharers = 0

	if v, evicted := l2.Allocate(lineAddr, cache.Modified); evicted {
		s.handleVictim(node, v)
	}
	return lat, false
}

// invalidateSharers sends invalidations to every sharer except requester
// (including an Owned copy under MOESI), charging one round trip
// (invalidations proceed in parallel) and counting each message.
func (s *System) invalidateSharers(e *dirEntry, requester int, lineAddr uint64) int {
	lat := 0
	any := false
	for n := 0; n < s.cfg.NumNodes; n++ {
		if n == requester || e.sharers&(1<<uint(n)) == 0 {
			continue
		}
		s.l2s[n].Invalidate(lineAddr)
		s.backInvalidate(n, lineAddr)
		s.fabric.Send(interconnect.InvMsg, 1)
		s.fabric.Send(interconnect.AckMsg, 1)
		s.Stats.Invalidations.Inc()
		any = true
	}
	if any {
		// Parallel round trip: one inv hop out, one ack hop back.
		lat = 2 * (s.cfg.Fabric.RouterLatency + s.cfg.Fabric.LinkLatency)
	}
	return lat
}

// presenceRec is one (line, node, state) observation gathered from the
// cache arrays by CheckInvariants.
type presenceRec struct {
	la   uint64
	node int
	st   cache.State
}

// CheckInvariants validates the protocol's global invariants against the
// actual cache contents. It is O(cached lines) and intended for tests and
// debug builds; it returns an error describing the first violation found.
//
// The per-line presence view is gathered into a reusable sorted scratch
// slice rather than a freshly built map, so repeated sweeps are
// allocation-free in steady state.
func (s *System) CheckInvariants() error {
	s.scratch = s.scratch[:0]
	for n, l2 := range s.l2s {
		n := n
		l2.ForEachValid(func(la uint64, st cache.State) {
			s.scratch = append(s.scratch, presenceRec{la: la, node: n, st: st})
		})
	}
	sortPresence(s.scratch)
	// Walk runs of equal line address; nodes within a run are already in
	// ascending order because each cache was scanned in node order.
	for i := 0; i < len(s.scratch); {
		j := i + 1
		for j < len(s.scratch) && s.scratch[j].la == s.scratch[i].la {
			j++
		}
		if err := s.checkLine(s.scratch[i].la, s.scratch[i:j]); err != nil {
			return err
		}
		i = j
	}
	// Directory must not claim presence the caches lack.
	var dirErr error
	s.dir.forEach(func(e *dirEntry) bool {
		la := e.key
		switch e.state {
		case dirExclusive:
			if s.l2s[e.owner].Lookup(la) == cache.Invalid {
				dirErr = fmt.Errorf("line %#x: directory owner %d has no copy", la, e.owner)
				return false
			}
		case dirShared, dirOwned:
			for n := 0; n < s.cfg.NumNodes; n++ {
				if e.sharers&(1<<uint(n)) != 0 && s.l2s[n].Lookup(la) == cache.Invalid {
					dirErr = fmt.Errorf("line %#x: recorded sharer %d has no copy", la, n)
					return false
				}
			}
		}
		return true
	})
	return dirErr
}

// sortPresence orders records by (line, node) in place, without
// allocating.
func sortPresence(recs []presenceRec) {
	slices.SortFunc(recs, func(a, b presenceRec) int {
		if a.la != b.la {
			if a.la < b.la {
				return -1
			}
			return 1
		}
		return a.node - b.node
	})
}

// checkLine validates one line's cached copies (run) against each other
// and the directory. Error paths may allocate; the clean path does not.
func (s *System) checkLine(la uint64, run []presenceRec) error {
	mCount, eCount, oCount := 0, 0, 0
	for _, r := range run {
		switch r.st {
		case cache.Modified:
			mCount++
		case cache.Exclusive:
			eCount++
		case cache.Owned:
			oCount++
		}
	}
	if mCount+eCount > 1 || (mCount+eCount == 1 && len(run) > 1) {
		return fmt.Errorf("line %#x: exclusive/modified copy coexists with others (%v)", la, runStates(run))
	}
	if oCount > 1 || (oCount == 1 && mCount+eCount > 0) {
		return fmt.Errorf("line %#x: invalid Owned combination (%v)", la, runStates(run))
	}
	if oCount == 1 && s.cfg.Protocol != MOESI {
		return fmt.Errorf("line %#x: Owned state under MESI", la)
	}
	e := s.dir.get(la)
	if e == nil {
		return fmt.Errorf("line %#x cached at %v but unknown to directory", la, runNodes(run))
	}
	switch e.state {
	case dirExclusive:
		if len(run) != 1 || run[0].node != int(e.owner) {
			return fmt.Errorf("line %#x: directory says exclusive@%d, caches say %v", la, e.owner, runNodes(run))
		}
	case dirShared:
		for _, r := range run {
			if e.sharers&(1<<uint(r.node)) == 0 {
				return fmt.Errorf("line %#x: node %d holds line but is not a recorded sharer", la, r.node)
			}
		}
	case dirOwned:
		if s.l2s[e.owner].Lookup(la) != cache.Owned {
			return fmt.Errorf("line %#x: directory says owned@%d but that cache holds %v",
				la, e.owner, s.l2s[e.owner].Lookup(la))
		}
		for _, r := range run {
			if e.sharers&(1<<uint(r.node)) == 0 {
				return fmt.Errorf("line %#x: node %d holds owned line but is not recorded", la, r.node)
			}
		}
	case dirUncached:
		return fmt.Errorf("line %#x: directory says uncached but cached at %v", la, runNodes(run))
	}
	return nil
}

func runStates(run []presenceRec) []cache.State {
	states := make([]cache.State, len(run))
	for i, r := range run {
		states[i] = r.st
	}
	return states
}

func runNodes(run []presenceRec) []int {
	nodes := make([]int, len(run))
	for i, r := range run {
		nodes[i] = r.node
	}
	return nodes
}

// DirectorySize returns the number of tracked lines (diagnostics).
func (s *System) DirectorySize() int { return s.dir.len() }

// ResetStats clears protocol, fabric, memory and per-L2 counters while
// preserving cache contents — used at epoch boundaries.
func (s *System) ResetStats() {
	s.Stats = Stats{}
	s.fabric.Reset()
	s.mem.Reset()
	for _, l2 := range s.l2s {
		l2.Stats.Reset()
	}
}

// AggregateL2HitRate returns the hit rate across a set of nodes, the
// feedback metric §III-B uses for dynamic threshold estimation ("the L2
// cache hit rate of both the OS and user processors, averaged together").
func (s *System) AggregateL2HitRate(nodes []int) float64 {
	var hits, accesses uint64
	for _, n := range nodes {
		hits += s.l2s[n].Stats.Hits.Value()
		accesses += s.l2s[n].Stats.Accesses.Value()
	}
	return stats.Ratio(hits, accesses)
}
