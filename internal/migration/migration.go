// Package migration models the mechanisms that move execution between a
// user core and the OS core, and the queuing that arises when one OS core
// serves several user cores (§II "Migration Implementations", §V-C).
//
// The paper deliberately parameterizes the one-way migration latency
// because it dominates the achievable benefit: ~5,000 cycles for an
// unmodified Linux 2.6.18 kernel migration, ~3,000 for proposed software
// improvements (Strong et al.), and ~100 cycles for the Brown & Tullsen
// hardware thread-transfer mechanism.
package migration

import (
	"fmt"

	"offloadsim/internal/stats"
)

// Engine describes one migration implementation.
type Engine struct {
	Name string
	// OneWay is the one-way migration latency in cycles. A full
	// off-load pays it twice: once to reach the OS core and once to
	// return.
	OneWay int
	// Description says where the number comes from.
	Description string
}

// Validate rejects negative latencies.
func (e Engine) Validate() error {
	if e.OneWay < 0 {
		return fmt.Errorf("migration: negative one-way latency %d", e.OneWay)
	}
	return nil
}

// Conservative is today's software path: interrupt the user core, write
// architected state to memory, interrupt the OS core, reload (§II;
// ~5,000 cycles in unmodified Linux 2.6.18).
func Conservative() Engine {
	return Engine{Name: "conservative", OneWay: 5000,
		Description: "unmodified Linux 2.6.18 kernel thread migration"}
}

// Fast is the improved software switching of Strong et al. (~3,000
// cycles).
func Fast() Engine {
	return Engine{Name: "fast", OneWay: 3000,
		Description: "software fast-switch (Strong et al., OSR 2009)"}
}

// Aggressive is the hardware state-machine transfer of Brown & Tullsen
// (~100 cycles).
func Aggressive() Engine {
	return Engine{Name: "aggressive", OneWay: 100,
		Description: "hardware thread transfer (Brown & Tullsen, ICS 2008)"}
}

// Custom builds an engine with an arbitrary one-way latency, for the
// latency sweeps of Figure 4.
func Custom(oneWay int) Engine {
	return Engine{Name: fmt.Sprintf("custom-%d", oneWay), OneWay: oneWay,
		Description: "parameterized latency point"}
}

// OSCore models the off-load target: a core that serves off-loaded OS
// invocations on a fixed number of hardware contexts. The paper evaluates
// a single (non-SMT) core — requests queue whenever it is busy (§V-C) —
// and suggests SMT as the way one OS core might serve several user cores;
// Slots > 1 models that extension as a k-server queue. The zero value is
// the paper's single-context core.
type OSCore struct {
	freeAt []uint64 // next-free cycle per hardware context

	Requests   stats.Counter
	BusyCycles stats.Counter
	QueueDelay stats.Running
}

// NewOSCore builds an OS core with the given number of hardware contexts
// (clamped to at least 1).
func NewOSCore(slots int) *OSCore {
	if slots < 1 {
		slots = 1
	}
	return &OSCore{freeAt: make([]uint64, slots)}
}

// ensure lazily initializes the zero value as a single-context core.
func (o *OSCore) ensure() {
	if len(o.freeAt) == 0 {
		o.freeAt = make([]uint64, 1)
	}
}

// Slots returns the number of hardware contexts.
func (o *OSCore) Slots() int {
	o.ensure()
	return len(o.freeAt)
}

// Reserve books a context for an off-loaded invocation arriving at the
// given cycle (already including the inbound migration). It returns the
// cycle execution starts and the queuing delay endured.
func (o *OSCore) Reserve(arrival, execCycles uint64) (start, wait uint64) {
	o.ensure()
	// Earliest-free context serves the request.
	best := 0
	for i := 1; i < len(o.freeAt); i++ {
		if o.freeAt[i] < o.freeAt[best] {
			best = i
		}
	}
	start = arrival
	if o.freeAt[best] > start {
		start = o.freeAt[best]
	}
	wait = start - arrival
	o.freeAt[best] = start + execCycles
	o.Requests.Inc()
	o.BusyCycles.Add(execCycles)
	o.QueueDelay.Observe(float64(wait))
	return start, wait
}

// Backlog counts the hardware contexts still busy at the given cycle —
// the queue depth an off-load arriving then observes. Read-only; the
// telemetry layer samples it before Reserve books the request.
func (o *OSCore) Backlog(now uint64) int {
	o.ensure()
	n := 0
	for _, f := range o.freeAt {
		if f > now {
			n++
		}
	}
	return n
}

// FreeAt returns the earliest cycle at which some context becomes idle.
func (o *OSCore) FreeAt() uint64 {
	o.ensure()
	min := o.freeAt[0]
	for _, f := range o.freeAt[1:] {
		if f < min {
			min = f
		}
	}
	return min
}

// ResetStats clears the accounting but keeps the busy horizon so
// in-flight reservations stay consistent.
func (o *OSCore) ResetStats() {
	o.Requests.Reset()
	o.BusyCycles.Reset()
	o.QueueDelay.Reset()
}
