package server

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"offloadsim/internal/obs"
	"offloadsim/internal/oscore"
)

// Metrics is the daemon's instrumentation, hand-rolled in the Prometheus
// text exposition format (no dependencies). Counters and gauges are
// atomics; the latency histogram takes a mutex only on observe/scrape.
type Metrics struct {
	JobsSubmitted atomic.Uint64 // accepted submissions (cache hits included)
	JobsCompleted atomic.Uint64 // jobs finished successfully (cache hits included)
	JobsFailed    atomic.Uint64 // jobs that errored, timed out, or were aborted
	JobsRejected  atomic.Uint64 // submissions bounced with 429 (full queue)
	JobsCoalesced atomic.Uint64 // submissions attached to an identical in-flight job

	CacheHits   atomic.Uint64 // submissions served instantly from the result cache
	CacheMisses atomic.Uint64 // submissions that required (or joined) a simulation

	JobsSampled  atomic.Uint64 // simulations executed in interval-sampled mode
	JobsDetailed atomic.Uint64 // simulations executed fully detailed
	JobsTraced   atomic.Uint64 // simulations executed with telemetry capture

	// Fleet coordination (docs/CLUSTER.md).
	PeerCacheHits   atomic.Uint64 // jobs finished from a peer's cache tier instead of simulating
	PeerCacheMisses atomic.Uint64 // peer cache probes that found nothing (job simulated locally)
	JobsStolen      atomic.Uint64 // jobs this owner dispatched to a less-loaded peer
	PeerExecutes    atomic.Uint64 // jobs executed here on behalf of a peer (steal victims, sweep fan-out)
	JobsForwarded   atomic.Uint64 // submissions routed to their ring owner
	Sweeps          atomic.Uint64 // sweep requests accepted
	SweepPoints     atomic.Uint64 // grid points accepted across all sweeps

	QueueDepth    atomic.Int64 // jobs sitting in the bounded queue
	JobsRunning   atomic.Int64 // jobs currently being simulated
	RingOwnedKeys atomic.Int64 // cached results whose key this replica owns per the ring (refreshed at scrape)

	// SLO burn counters (docs/OBSERVABILITY.md). The latency pair splits
	// every finished job against the configured per-job latency target so
	// scrapers compute burn rate as breach_total / (within_total +
	// breach_total) over any window. Targets are stored as float bits so
	// observe and scrape need no lock.
	SLOLatencyWithin atomic.Uint64 // jobs that finished within the latency target
	SLOLatencyBreach atomic.Uint64 // jobs that exceeded the latency target
	sloLatencyBits   atomic.Uint64 // float64 bits of the latency target in seconds; 0 disables
	sloCacheHitBits  atomic.Uint64 // float64 bits of the cache-hit-ratio target; 0 disables

	// Service-trace store health, refreshed at scrape like RingOwnedKeys
	// (zero when tracing is disabled).
	TraceStoreTraces atomic.Int64  // traces resident in the in-memory store
	TraceStoreSpans  atomic.Int64  // spans resident across all stored traces
	SpansRecorded    atomic.Uint64 // service spans accepted into the store
	SpansDropped     atomic.Uint64 // service spans dropped (per-trace span cap, late arrivals)
	TracesEvicted    atomic.Uint64 // whole traces evicted FIFO by the store cap

	latency   histogram
	queueWait histogram
	simSpeed  histogram

	// oscoreDepth holds the per-syscall-class mean cluster queue depth
	// of the most recent multi-OS-core job (docs/OSCORES.md). The class
	// label is bounded by construction: ObserveOSCoreDepth drops any
	// name outside the fixed syscall-category set, so the series count
	// can never exceed oscore.CategoryNames().
	oscoreDepthMu sync.Mutex
	oscoreDepth   map[string]float64
}

// NewMetrics builds the registry with the default bucket layouts.
func NewMetrics() *Metrics {
	return &Metrics{
		latency: newHistogram(
			// Seconds; simulations span ~ms (cache hit path excluded) to
			// minutes for large budgets.
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60},
		),
		queueWait: newHistogram(
			// Seconds from submit to worker pickup: ~0 on an idle pool,
			// bounded by job runtime × queue depth under saturation.
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60},
		),
		simSpeed: newHistogram(
			// Simulated instructions per wall second; the detailed engine
			// sits in the millions (BENCH.md), sampled mode far higher.
			[]float64{1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8},
		),
	}
}

// SetSLOTargets installs the SLO targets: the per-job latency target in
// seconds and the minimum cache-hit ratio. Values <= 0 disable the
// corresponding series. Call before serving traffic.
func (m *Metrics) SetSLOTargets(latencySeconds, cacheHitMin float64) {
	if latencySeconds > 0 {
		m.sloLatencyBits.Store(math.Float64bits(latencySeconds))
	}
	if cacheHitMin > 0 {
		m.sloCacheHitBits.Store(math.Float64bits(cacheHitMin))
	}
}

// SetTraceStats refreshes the trace-store health gauges; called at
// scrape time with obs.Tracer.Stats().
func (m *Metrics) SetTraceStats(traces, spans int, recorded, dropped, evicted uint64) {
	m.TraceStoreTraces.Store(int64(traces))
	m.TraceStoreSpans.Store(int64(spans))
	m.SpansRecorded.Store(recorded)
	m.SpansDropped.Store(dropped)
	m.TracesEvicted.Store(evicted)
}

// ObserveJobLatency records one job's submit-to-finish wall time and, if
// a latency target is configured, scores it against the SLO.
func (m *Metrics) ObserveJobLatency(seconds float64) {
	m.latency.observe(seconds)
	if target := math.Float64frombits(m.sloLatencyBits.Load()); target > 0 {
		if seconds <= target {
			m.SLOLatencyWithin.Add(1)
		} else {
			m.SLOLatencyBreach.Add(1)
		}
	}
}

// ObserveOSCoreDepth records one syscall class's mean cluster queue
// depth from a finished multi-OS-core job. Unknown class names are
// dropped silently — the label-cardinality guard that keeps
// offsimd_oscore_queue_depth bounded at the fixed category set.
func (m *Metrics) ObserveOSCoreDepth(class string, depth float64) {
	if !oscoreClassNames[class] {
		return
	}
	m.oscoreDepthMu.Lock()
	defer m.oscoreDepthMu.Unlock()
	if m.oscoreDepth == nil {
		m.oscoreDepth = make(map[string]float64, len(oscoreClassNames))
	}
	m.oscoreDepth[class] = depth
}

// oscoreClassNames is the closed set of legal class label values.
var oscoreClassNames = func() map[string]bool {
	set := make(map[string]bool)
	for _, name := range oscore.CategoryNames() {
		set[name] = true
	}
	return set
}()

// ObserveQueueWait records one job's submit-to-worker-pickup wall time.
func (m *Metrics) ObserveQueueWait(seconds float64) { m.queueWait.observe(seconds) }

// ObserveSimSpeed records one successful simulation's simulated
// instructions per wall second.
func (m *Metrics) ObserveSimSpeed(instrsPerSecond float64) { m.simSpeed.observe(instrsPerSecond) }

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counterF := func(name, help string, v float64) {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	counter("offsimd_jobs_submitted_total", "Accepted job submissions.", m.JobsSubmitted.Load())
	counter("offsimd_jobs_completed_total", "Jobs finished successfully.", m.JobsCompleted.Load())
	counter("offsimd_jobs_failed_total", "Jobs that errored, timed out or were aborted.", m.JobsFailed.Load())
	counter("offsimd_jobs_rejected_total", "Submissions rejected by queue backpressure.", m.JobsRejected.Load())
	counter("offsimd_jobs_coalesced_total", "Submissions coalesced onto identical in-flight jobs.", m.JobsCoalesced.Load())
	counter("offsimd_cache_hits_total", "Submissions served from the result cache.", m.CacheHits.Load())
	counter("offsimd_cache_misses_total", "Submissions not present in the result cache.", m.CacheMisses.Load())
	counter("offsimd_jobs_sampled_total", "Simulations executed in interval-sampled mode.", m.JobsSampled.Load())
	counter("offsimd_jobs_detailed_total", "Simulations executed fully detailed.", m.JobsDetailed.Load())
	counter("offsimd_jobs_traced_total", "Simulations executed with telemetry capture.", m.JobsTraced.Load())
	counter("offsimd_peer_cache_hits_total", "Jobs finished from a peer's cache tier instead of simulating.", m.PeerCacheHits.Load())
	counter("offsimd_peer_cache_misses_total", "Peer cache probes that found nothing.", m.PeerCacheMisses.Load())
	counter("offsimd_jobs_stolen_total", "Jobs dispatched to a less-loaded peer by work-stealing.", m.JobsStolen.Load())
	counter("offsimd_peer_executes_total", "Jobs executed here on behalf of a peer replica.", m.PeerExecutes.Load())
	counter("offsimd_jobs_forwarded_total", "Submissions routed to their consistent-hash ring owner.", m.JobsForwarded.Load())
	counter("offsimd_sweeps_total", "Sweep requests accepted.", m.Sweeps.Load())
	counter("offsimd_sweep_points_total", "Grid points accepted across all sweeps.", m.SweepPoints.Load())
	gauge("offsimd_queue_depth_jobs", "Jobs waiting in the bounded queue.", m.QueueDepth.Load())
	gauge("offsimd_jobs_running", "Jobs currently being simulated.", m.JobsRunning.Load())
	gauge("offsimd_ring_owned_keys", "Cached results whose key this replica owns per the hash ring.", m.RingOwnedKeys.Load())
	gauge("offsimd_trace_store_traces", "Service traces resident in the in-memory store.", m.TraceStoreTraces.Load())
	gauge("offsimd_trace_store_spans", "Service spans resident across all stored traces.", m.TraceStoreSpans.Load())
	counter("offsimd_spans_recorded_total", "Service spans accepted into the trace store.", m.SpansRecorded.Load())
	counter("offsimd_spans_dropped_total", "Service spans dropped by the per-trace span cap.", m.SpansDropped.Load())
	counter("offsimd_traces_evicted_total", "Whole service traces evicted FIFO by the store cap.", m.TracesEvicted.Load())
	if target := math.Float64frombits(m.sloLatencyBits.Load()); target > 0 {
		gaugeF("offsimd_slo_latency_target_seconds", "Configured per-job latency SLO target.", target)
		counter("offsimd_slo_latency_within_total", "Jobs that finished within the latency SLO target.", m.SLOLatencyWithin.Load())
		counter("offsimd_slo_latency_breach_total", "Jobs that exceeded the latency SLO target.", m.SLOLatencyBreach.Load())
	}
	if target := math.Float64frombits(m.sloCacheHitBits.Load()); target > 0 {
		// Burn rate is computed by the scraper against the existing
		// offsimd_cache_{hits,misses}_total counters.
		gaugeF("offsimd_slo_cache_hit_target_ratio", "Configured minimum cache-hit-ratio SLO target.", target)
	}
	rt := obs.ReadRuntimeStats()
	gauge("offsimd_go_goroutines", "Live goroutines in the daemon process.", rt.Goroutines)
	gauge("offsimd_go_heap_bytes", "Bytes of live heap objects.", rt.HeapBytes)
	counter("offsimd_go_gc_cycles_total", "Completed GC cycles since process start.", rt.GCCycles)
	counterF("offsimd_go_gc_pause_seconds_total", "Approximate total stop-the-world GC pause time.", rt.GCPauseSeconds)
	m.writeOSCoreDepth(cw)
	m.latency.writeTo(cw, "offsimd_job_latency_seconds", "Submit-to-finish job latency.")
	m.queueWait.writeTo(cw, "offsimd_queue_wait_seconds", "Submit-to-worker-pickup queue wait.")
	m.simSpeed.writeTo(cw, "offsimd_sim_instrs_per_second", "Simulated instructions per wall second, successful jobs only.")
	return cw.n, cw.err
}

// writeOSCoreDepth renders the per-class cluster queue-depth gauge.
// Classes appear in fixed category order, so consecutive scrapes list
// series identically; the metric is absent until a multi-OS-core job
// completes, keeping single-OS-core deployments' scrapes unchanged.
func (m *Metrics) writeOSCoreDepth(w io.Writer) {
	m.oscoreDepthMu.Lock()
	defer m.oscoreDepthMu.Unlock()
	if len(m.oscoreDepth) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP offsimd_oscore_queue_depth Mean per-class OS-cluster queue depth of the most recent multi-OS-core job.\n"+
		"# TYPE offsimd_oscore_queue_depth gauge\n")
	for _, class := range oscore.CategoryNames() {
		if depth, ok := m.oscoreDepth[class]; ok {
			fmt.Fprintf(w, "offsimd_oscore_queue_depth{class=%q} %g\n", class, depth)
		}
	}
}

// histogram is a fixed-bucket cumulative histogram.
type histogram struct {
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []uint64  // non-cumulative counts per bound, +Inf last
	sum     float64
	count   uint64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i]++
	h.sum += v
	h.count++
}

func (h *histogram) writeTo(w io.Writer, name, help string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, b := range h.bounds {
		cum += h.buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.buckets[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
