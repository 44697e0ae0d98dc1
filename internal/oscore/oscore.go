// Package oscore generalizes the paper's single dedicated OS core into a
// cluster of K OS cores with per-syscall-class affinity routing,
// asymmetric (big/little) core speeds, and asynchronous fire-and-forget
// dispatch for side-effect-only syscall classes (docs/OSCORES.md).
//
// The paper evaluates exactly one OS core and prices every off-load as a
// synchronous round trip. Two strands of follow-on work motivate the
// generalization: Kallurkar & Sarangi's sensitivity analysis shows the
// benefit of core specialization hinges on how dispatch and queue
// overheads amortize across consumers, and Colagrande & Benini's MPSoC
// offload model shows most of the latency hides when the requester keeps
// executing while the offloaded work runs. This package owns the routing
// and queueing state; internal/sim owns the clock/pricing semantics.
//
// Everything here is deterministic: routing ties break toward the lowest
// queue index, async return slots drain in issue order, and no state
// depends on host scheduling.
package oscore

import (
	"offloadsim/internal/migration"
	"offloadsim/internal/syscalls"
)

// AsyncReturn is one outstanding fire-and-forget off-load: the cycle its
// return descriptor lands back at the issuing core, and the OS core that
// served it (telemetry).
type AsyncReturn struct {
	Complete uint64
	Core     int
}

// Cluster is the runtime state of K OS cores serving off-loaded
// invocations: one reservation queue per core (each with the configured
// number of hardware contexts), a per-class designated queue, per-core
// speed factors, and per-user-core async return slots.
type Cluster struct {
	affinity  [syscalls.NumCategories]int
	speeds    []float64
	queues    []*migration.OSCore
	rebalance bool

	// slots is the async return-slot count per user core (0 disables
	// async dispatch); pending holds each user core's outstanding
	// fire-and-forget off-loads in issue order.
	slots   int
	pending [][]AsyncReturn

	// Per-class accounting: requests routed and the queue depth each
	// observed at arrival (for mean-depth reporting and the offsimd
	// per-class gauge).
	classReq   [syscalls.NumCategories]uint64
	classDepth [syscalls.NumCategories]uint64

	rebalances       uint64
	asyncDispatched  uint64
	asyncReconciled  uint64
	asyncStallCycles uint64
}

// NewCluster builds a cluster of k queues with contexts hardware contexts
// each. affinity designates a queue per syscall category, speeds the
// relative frequency of each core (len k), rebalance whether routing may
// divert to a less-loaded queue, asyncSlots the per-user return-slot
// budget (0 = synchronous only) and users the user-core count.
func NewCluster(k, contexts int, affinity [syscalls.NumCategories]int, speeds []float64,
	rebalance bool, asyncSlots, users int) *Cluster {
	c := &Cluster{
		affinity:  affinity,
		speeds:    speeds,
		rebalance: rebalance,
		slots:     asyncSlots,
		pending:   make([][]AsyncReturn, users),
	}
	for i := 0; i < k; i++ {
		c.queues = append(c.queues, migration.NewOSCore(contexts))
	}
	return c
}

// K returns the OS-core count.
func (c *Cluster) K() int { return len(c.queues) }

// Contexts returns the hardware-context count of one OS core.
func (c *Cluster) Contexts() int { return c.queues[0].Slots() }

// Speed returns OS core q's relative speed factor.
func (c *Cluster) Speed(q int) float64 { return c.speeds[q] }

// Queue exposes OS core q's reservation queue (stats collection, and the
// parallel engine's per-quantum free-cycle seed).
func (c *Cluster) Queue(q int) *migration.OSCore { return c.queues[q] }

// Designated returns the affinity-designated queue for a category.
func (c *Cluster) Designated(cat syscalls.Category) int { return c.affinity[cat] }

// Backlog returns the busy-context count of queue q at the given cycle.
func (c *Cluster) Backlog(q int, now uint64) int { return c.queues[q].Backlog(now) }

// Route picks the queue serving a category-cat request arriving at the
// given cycle. Without rebalancing the affinity-designated queue always
// serves; with it, the least-backlogged queue wins, the designated queue
// keeping ties (cache locality) and lower indexes breaking the rest.
func (c *Cluster) Route(cat syscalls.Category, arrival uint64) (q int, rebalanced bool) {
	des := c.affinity[cat]
	if !c.rebalance || len(c.queues) == 1 {
		return des, false
	}
	desBacklog := c.queues[des].Backlog(arrival)
	best, bestBacklog := des, desBacklog
	for i, queue := range c.queues {
		if i == des {
			continue
		}
		if b := queue.Backlog(arrival); b < bestBacklog {
			best, bestBacklog = i, b
		}
	}
	if best != des && bestBacklog < desBacklog {
		c.rebalances++
		return best, true
	}
	return des, false
}

// Reserve books queue q for a request of the given category arriving at
// arrival with execCycles of (already speed-scaled) execution, recording
// the per-class depth sample, and returns the start cycle and queue wait.
func (c *Cluster) Reserve(q int, cat syscalls.Category, arrival, execCycles uint64) (start, wait uint64) {
	c.classReq[cat]++
	c.classDepth[cat] += uint64(c.queues[q].Backlog(arrival))
	return c.queues[q].Reserve(arrival, execCycles)
}

// Scale converts raw execution cycles into the shared reference clock
// given a core's relative speed: a 0.5x "little" core takes twice the
// cycles. Non-zero work never rounds to zero.
func Scale(cycles uint64, speed float64) uint64 {
	if speed == 1 || cycles == 0 {
		return cycles
	}
	scaled := uint64(float64(cycles)/speed + 0.5)
	if scaled == 0 {
		scaled = 1
	}
	return scaled
}

// SlotFree reports whether user core u may issue another fire-and-forget
// off-load without waiting.
func (c *Cluster) SlotFree(u int) bool {
	return c.slots > 0 && len(c.pending[u]) < c.slots
}

// PushAsync records a fire-and-forget off-load by user core u completing
// (return descriptor landed) at the given cycle on OS core q.
func (c *Cluster) PushAsync(u int, complete uint64, q int) {
	c.pending[u] = append(c.pending[u], AsyncReturn{Complete: complete, Core: q})
	c.asyncDispatched++
}

// PopEarliest removes and returns user core u's earliest-completing
// outstanding off-load (false if none). Ties break toward issue order.
func (c *Cluster) PopEarliest(u int) (complete uint64, core int, ok bool) {
	p := c.pending[u]
	if len(p) == 0 {
		return 0, 0, false
	}
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i].Complete < p[best].Complete {
			best = i
		}
	}
	s := p[best]
	c.pending[u] = append(p[:best], p[best+1:]...)
	return s.Complete, s.Core, true
}

// PendingCount returns user core u's outstanding fire-and-forget count.
func (c *Cluster) PendingCount(u int) int { return len(c.pending[u]) }

// TakePending removes and returns user core u's outstanding off-loads in
// issue order — the drain at a synchronous OS boundary. The returned
// slice aliases the slot buffer: consume it before the next PushAsync.
func (c *Cluster) TakePending(u int) []AsyncReturn {
	p := c.pending[u]
	c.pending[u] = c.pending[u][:0]
	return p
}

// ObserveReconcile accounts one async return reconciled after the issuing
// core stalled the given cycles for it.
func (c *Cluster) ObserveReconcile(stall uint64) {
	c.asyncReconciled++
	c.asyncStallCycles += stall
}

// OutstandingAsync counts unreconciled fire-and-forget off-loads across
// all user cores.
func (c *Cluster) OutstandingAsync() uint64 {
	var n uint64
	for _, p := range c.pending {
		n += uint64(len(p))
	}
	return n
}

// BusyCycles sums execution cycles booked across all queues.
func (c *Cluster) BusyCycles() uint64 {
	var sum uint64
	for _, q := range c.queues {
		sum += q.BusyCycles.Value()
	}
	return sum
}

// Requests sums requests served across all queues.
func (c *Cluster) Requests() uint64 {
	var sum uint64
	for _, q := range c.queues {
		sum += q.Requests.Value()
	}
	return sum
}

// Utilization returns aggregate busy cycles over the cluster's capacity
// (horizon x total hardware contexts), capped at 1.
func (c *Cluster) Utilization(horizon uint64) float64 {
	if horizon == 0 {
		return 0
	}
	contexts := 0
	for _, q := range c.queues {
		contexts += q.Slots()
	}
	u := float64(c.BusyCycles()) / (float64(horizon) * float64(contexts))
	if u > 1 {
		u = 1
	}
	return u
}

// QueueDelay aggregates the queues' delay statistics: the pooled sum and
// observation count (for the mean) and the maximum across queues.
func (c *Cluster) QueueDelay() (sum float64, n uint64, max float64) {
	for _, q := range c.queues {
		sum += q.QueueDelay.Sum()
		n += q.QueueDelay.N()
		if m := q.QueueDelay.Max(); m > max {
			max = m
		}
	}
	return sum, n, max
}

// ClassStats returns category cat's routed-request count and the mean
// queue depth those requests observed at arrival.
func (c *Cluster) ClassStats(cat syscalls.Category) (requests uint64, meanDepth float64) {
	requests = c.classReq[cat]
	if requests > 0 {
		meanDepth = float64(c.classDepth[cat]) / float64(requests)
	}
	return requests, meanDepth
}

// Rebalances counts requests diverted away from their designated queue.
func (c *Cluster) Rebalances() uint64 { return c.rebalances }

// AsyncStats returns the fire-and-forget counters: dispatches, reconciled
// returns and the cycles issuing cores stalled waiting on reconciles.
func (c *Cluster) AsyncStats() (dispatched, reconciled, stallCycles uint64) {
	return c.asyncDispatched, c.asyncReconciled, c.asyncStallCycles
}

// ResetStats clears the accounting but keeps the queue horizons and
// outstanding async slots, so in-flight work stays consistent across the
// warmup boundary.
func (c *Cluster) ResetStats() {
	for _, q := range c.queues {
		q.ResetStats()
	}
	for i := range c.classReq {
		c.classReq[i] = 0
		c.classDepth[i] = 0
	}
	c.rebalances = 0
	c.asyncDispatched = 0
	c.asyncReconciled = 0
	c.asyncStallCycles = 0
}
