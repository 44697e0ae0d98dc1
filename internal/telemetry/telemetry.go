// Package telemetry is the simulator's observability layer: a
// deterministic structured event trace (per-core ring buffers merged in
// (time, core, seq) order), interval time-series of the headline
// metrics, a JSONL writer, and the one Chrome trace-event encoder
// (Perfetto loads it) that internal/obs renders service spans with too.
// obs.ReadJSONL reads either kind of JSONL back (docs/TELEMETRY.md).
//
// The layer is built around two contracts. First, instrumentation never
// perturbs the simulation: tracing only reads engine state, so results
// are byte-identical with telemetry on or off. Second, tracing itself is
// deterministic: per-core rings are private to their simulated core (the
// parallel engine's workers never contend), and the merge order is a
// pure function of event content, so trace bytes are identical at any
// GOMAXPROCS and any Workers setting. A nil *Tracer is the disabled
// state; every method is nil-safe and the simulator guards its emission
// sites with a single pointer check, which the engine benchmark bounds
// at under 2% (make telemetry-overhead).
package telemetry

import (
	"fmt"
	"sort"
)

// DefaultRingEvents is the per-core event-ring capacity; when a ring
// fills, the oldest events are overwritten (the trace keeps the tail).
// At 48 bytes an event, it bounds a 16-core trace at ~50 MB.
const DefaultRingEvents = 1 << 16

// DefaultIntervalInstrs is the default time-series cadence in retired
// instructions per user core.
const DefaultIntervalInstrs = 50_000

// Options configures what a Tracer captures.
type Options struct {
	// Events enables the structured event trace, DefaultRingEvents per
	// core.
	Events bool
	// IntervalInstrs enables interval time-series sampling at this
	// cadence (retired instructions per user core); 0 disables the
	// series.
	IntervalInstrs uint64
}

// Validate checks the options.
func (o Options) Validate() error {
	if !o.Events && o.IntervalInstrs == 0 {
		return fmt.Errorf("telemetry: nothing enabled (set Events or IntervalInstrs)")
	}
	return nil
}

// Meta identifies the run a capture came from.
type Meta struct {
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	Threshold int    `json:"threshold"`
	UserCores int    `json:"user_cores"`
	OSCore    bool   `json:"os_core"`
	// OSCores is the OS-cluster core count K when the run built a
	// cluster from an enabled Config.OSCores block (internal/oscore); 0
	// — and omitted — for the default single OS core, whose headers read
	// as they always have, and for a Baseline run, which builds none.
	OSCores int    `json:"os_cores,omitempty"`
	Seed    uint64 `json:"seed"`
	// TimeUnit names the unit of every Time/Cycles field: "cycle".
	TimeUnit string `json:"time_unit"`
}

// Capture is the finished product of a traced run: the merged event
// stream, the interval time-series, and enough metadata to interpret
// both.
type Capture struct {
	Meta   Meta
	Events []Event
	Series []IntervalPoint
	// Dropped counts events lost to ring overflow (oldest-first, per
	// core); 0 means the trace is complete.
	Dropped uint64
}

// ring is one core's event buffer: a circular overwrite buffer that
// keeps the most recent cap(buf) events. n counts every emission, so
// n - len(kept) is the core's drop count and n is the per-core Seq
// source.
type ring struct {
	buf []Event
	n   uint64
}

func (r *ring) emit(ev Event) {
	ev.Seq = uint32(r.n)
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = ev
	}
	r.n++
}

func (r *ring) dropped() uint64 {
	return r.n - uint64(len(r.buf))
}

// Tracer collects one run's telemetry. Build one with New, hand it to
// sim.Simulator.AttachTelemetry before Run, and read the Capture after.
// Emission is safe for concurrent use by distinct cores (each core owns
// its ring); all other methods are single-goroutine.
type Tracer struct {
	opts  Options
	meta  Meta
	rings []ring
	// armed gates emission to the measurement phase: the simulator arms
	// the tracer after warmup, so captures describe exactly the window
	// Result describes.
	armed  bool
	series []IntervalPoint
}

// New builds a tracer for a system with cores user cores.
func New(opts Options, cores int, meta Meta) (*Tracer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("telemetry: cores %d < 1", cores)
	}
	meta.TimeUnit = "cycle"
	t := &Tracer{opts: opts, meta: meta}
	if opts.Events {
		t.rings = make([]ring, cores)
		for i := range t.rings {
			t.rings[i].buf = make([]Event, 0, DefaultRingEvents)
		}
	}
	return t, nil
}

// MustNew panics on option errors.
func MustNew(opts Options, cores int, meta Meta) *Tracer {
	t, err := New(opts, cores, meta)
	if err != nil {
		panic(err)
	}
	return t
}

// Arm enables emission; the simulator calls it at the warmup/measurement
// boundary. Nil-safe.
func (t *Tracer) Arm() {
	if t == nil {
		return
	}
	t.armed = true
}

// EventsEnabled reports whether the structured event trace is on.
// Nil-safe.
func (t *Tracer) EventsEnabled() bool {
	return t != nil && t.opts.Events
}

// IntervalInstrs returns the time-series cadence (0 = disabled).
// Nil-safe.
func (t *Tracer) IntervalInstrs() uint64 {
	if t == nil {
		return 0
	}
	return t.opts.IntervalInstrs
}

// Emit records one event on core's ring. Distinct cores may emit
// concurrently; one core's emissions must be serial (they are: each
// simulated core is stepped by exactly one goroutine). Nil-safe.
func (t *Tracer) Emit(core int, ev Event) {
	if t == nil || !t.armed || !t.opts.Events {
		return
	}
	ev.Core = int32(core)
	t.rings[core].emit(ev)
}

// RecordInterval appends one time-series point. Nil-safe.
func (t *Tracer) RecordInterval(p IntervalPoint) {
	if t == nil || !t.armed {
		return
	}
	p.Index = len(t.series)
	t.series = append(t.series, p)
}

// Capture merges the per-core rings into the canonical (Time, Core,
// Seq) order and returns the finished capture. The merge is a pure
// function of event content, so two runs of the same configuration
// yield byte-identical encodings regardless of host parallelism.
func (t *Tracer) Capture() *Capture {
	if t == nil {
		return nil
	}
	c := &Capture{Meta: t.meta, Series: t.series}
	total := 0
	for i := range t.rings {
		total += len(t.rings[i].buf)
		c.Dropped += t.rings[i].dropped()
	}
	c.Events = make([]Event, 0, total)
	for i := range t.rings {
		c.Events = append(c.Events, t.rings[i].buf...)
	}
	sort.Slice(c.Events, func(a, b int) bool {
		x, y := &c.Events[a], &c.Events[b]
		if x.Time != y.Time {
			return x.Time < y.Time
		}
		if x.Core != y.Core {
			return x.Core < y.Core
		}
		return x.Seq < y.Seq
	})
	return c
}
