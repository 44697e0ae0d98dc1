package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
)

// Options sizes the daemon. Zero values take the documented defaults.
type Options struct {
	// QueueSize bounds the job queue; a full queue rejects submissions
	// with ErrQueueFull (HTTP 429). Default 64.
	QueueSize int
	// Workers is the worker-pool size. Default GOMAXPROCS.
	Workers int
	// JobTimeout bounds one simulation's wall time; expired jobs fail.
	// Default 2m; negative disables the timeout.
	JobTimeout time.Duration
	// CacheEntries bounds the result cache. Default 4096.
	CacheEntries int
	// Cluster joins the server to a multi-replica fleet (consistent-hash
	// routing, peer cache tier, work-stealing, sweep fan-out). The zero
	// value runs a single replica. See docs/CLUSTER.md.
	Cluster ClusterOptions
	// Obs configures request-scoped tracing, structured logging and SLO
	// instrumentation (docs/OBSERVABILITY.md). The zero value disables
	// tracing and discards logs.
	Obs ObsOptions
}

// ObsOptions is the observability configuration (docs/OBSERVABILITY.md).
type ObsOptions struct {
	// Tracing enables the service-span collector and the
	// /v1/debug/traces endpoints. Disabled, every instrumentation site
	// degrades to a nil-check (the ≤2% overhead path gated in CI).
	Tracing bool
	// MaxTraces bounds the in-memory trace store (0 =
	// obs.DefaultMaxTraces). Whole traces are evicted FIFO.
	MaxTraces int
	// Logger receives structured logs with trace/span correlation
	// fields; nil discards them without formatting.
	Logger *slog.Logger
	// SLOLatencyP95 is the per-job latency target backing the
	// offsimd_slo_latency_* burn counters; 0 disables them.
	SLOLatencyP95 time.Duration
	// SLOCacheHitMin is the cache-hit-ratio target exported as
	// offsimd_slo_cache_hit_target_ratio for burn-rate computation
	// against the cache hit/miss counters; <= 0 disables it.
	SLOCacheHitMin float64
}

func (o Options) withDefaults() Options {
	if o.QueueSize == 0 {
		o.QueueSize = 64
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	return o
}

// Server is the offsimd daemon core: submission, queueing, execution,
// caching and instrumentation. It is independent of HTTP; Handler()
// wraps it for the wire.
type Server struct {
	opts    Options
	metrics *Metrics
	cache   *resultCache
	queue   *jobQueue

	// cluster is non-nil when Options.Cluster joined a fleet; it owns
	// routing, the peer cache tier and stealing (cluster.go).
	cluster *clusterNode
	// coord decomposes and drives sweep requests (sweeps.go).
	coord *cluster.Coordinator

	// runSim is swappable for tests; defaults to sim.Run.
	runSim func(sim.Config) (sim.Result, error)

	// runTraced runs trace jobs: a detailed simulation with telemetry
	// attached. Swappable for tests; defaults to sim.RunTraced.
	runTraced func(sim.Config, telemetry.Options) (sim.Result, *telemetry.Capture, error)

	// now is swappable for tests; defaults to time.Now.
	now func() time.Time

	// obs collects service spans; nil when Options.Obs.Tracing is off
	// (every emission site is then a nil-check no-op).
	obs *obs.Tracer
	// log is the structured logger; never nil (discard by default).
	log *slog.Logger
	// admissions numbers trace-creating admissions; together with the
	// canonical key it derives deterministic trace IDs.
	admissions atomic.Uint64

	mu       sync.Mutex
	jobs     map[string]*job   // all jobs by id
	pending  map[string][]*job // key -> jobs awaiting one in-flight simulation
	sweeps   map[string]*cluster.Sweep
	seq      uint64
	sweepSeq uint64
	draining bool

	wg        sync.WaitGroup
	baseCtx   context.Context
	abort     context.CancelFunc
	startOnce sync.Once
}

// New builds a Server; call Start before submitting.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		opts:      opts,
		metrics:   NewMetrics(),
		cache:     newResultCache(opts.CacheEntries),
		queue:     newJobQueue(opts.QueueSize),
		runSim:    sim.Run,
		runTraced: sim.RunTraced,
		now:       time.Now,
		jobs:      make(map[string]*job),
		pending:   make(map[string][]*job),
		sweeps:    make(map[string]*cluster.Sweep),
		baseCtx:   ctx,
		abort:     cancel,
	}
	if opts.Cluster.Enabled() {
		srv.cluster = newClusterNode(opts.Cluster)
	}
	srv.log = obs.LoggerOrDiscard(opts.Obs.Logger)
	if opts.Obs.Tracing {
		replica := ""
		if opts.Cluster.Enabled() {
			replica = opts.Cluster.Membership.Self
		}
		// The tracer reads the clock through the server so tests that
		// swap srv.now keep span times consistent with job times.
		srv.obs = obs.NewTracer(replica, opts.Obs.MaxTraces, func() time.Time { return srv.now() })
	}
	srv.metrics.SetSLOTargets(opts.Obs.SLOLatencyP95.Seconds(), opts.Obs.SLOCacheHitMin)
	srv.coord = &cluster.Coordinator{RunPoint: srv.runSweepPoint}
	return srv
}

// Metrics exposes the instrumentation registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		for i := 0; i < s.opts.Workers; i++ {
			s.wg.Add(1)
			go s.worker()
		}
	})
}

// Submit validates spec, consults the result cache and either completes
// the job instantly (cache hit), attaches it to an identical in-flight
// job (coalescing), or enqueues it. In a fleet, a job landing on an
// overloaded owner may instead be offered to the least-loaded peer
// (work-stealing). ErrQueueFull and ErrDraining report backpressure and
// shutdown; other errors are invalid specs.
func (s *Server) Submit(spec sim.Spec) (JobStatus, error) {
	return s.submit(spec, submitOpts{})
}

// submitOpts distinguishes replica-to-replica work from client work.
type submitOpts struct {
	// internal marks jobs arriving via /v1/peer/execute: they execute
	// here, period — no forwarding (done at the HTTP layer) and no
	// re-stealing, so work cannot bounce around the fleet.
	internal bool
	// sc is the caller's trace position (HTTP request span, peer_execute
	// span, sweep point). Invalid starts a fresh trace at admission.
	sc obs.SpanContext
}

func (s *Server) submit(spec sim.Spec, opt submitOpts) (JobStatus, error) {
	cfg, err := spec.Config()
	if err != nil {
		return JobStatus{}, fmt.Errorf("invalid job spec: %w", err)
	}
	key, err := sim.CanonicalKey(cfg)
	if err != nil {
		return JobStatus{}, fmt.Errorf("invalid job spec: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.seq++
	j := &job{
		id:          fmt.Sprintf("j-%08d", s.seq),
		key:         key,
		spec:        spec,
		cfg:         cfg,
		trace:       spec.Trace,
		state:       StateQueued,
		submittedAt: s.now(),
		done:        make(chan struct{}),
	}

	// Admission span: the root of the job's local span subtree. A job
	// arriving with trace context (forwarded, stolen, or a sweep point)
	// stitches under the caller's span; otherwise admission starts a new
	// trace whose ID is a pure function of the canonical key and the
	// admission ordinal (docs/OBSERVABILITY.md).
	var adm *obs.ActiveSpan
	if s.obs != nil {
		parent := opt.sc
		if !parent.Valid() {
			parent = obs.RootContext(obs.TraceID(key, s.admissions.Add(1)))
		}
		adm = s.obs.StartSpan(parent, "admission")
		adm.SetJob(j.id)
		if opt.internal {
			adm.SetAttr("internal", "true")
		}
		j.tctx = adm.Context()
	}
	finishAdm := func(outcome string, err error) {
		if adm == nil {
			return
		}
		adm.SetAttr("outcome", outcome)
		if err != nil {
			adm.SetError(err.Error())
		}
		adm.End()
		s.log.Debug("job admitted", append(obs.LogContext(j.tctx),
			slog.String("job", j.id), slog.String("outcome", outcome))...)
	}

	if j.trace {
		// A trace job must actually simulate: a cached result document
		// has no event timeline, and a coalesced waiter would inherit a
		// result without one. It bypasses the cache-hit and coalescing
		// paths entirely (and never registers under pending, so identical
		// untraced jobs coalesce among themselves as usual), but its
		// result still back-fills the shared cache on completion.
		if !s.queue.tryPush(j) {
			s.metrics.JobsRejected.Add(1)
			finishAdm("rejected", ErrQueueFull)
			return JobStatus{}, ErrQueueFull
		}
		s.jobs[j.id] = j
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.CacheMisses.Add(1)
		s.metrics.QueueDepth.Add(1)
		finishAdm("enqueued_trace", nil)
		return s.stamp(j.status()), nil
	}

	var lookupStart time.Time
	if s.obs != nil {
		lookupStart = s.now()
	}
	res, hit := s.cache.get(key)
	if s.obs != nil {
		outcome := "miss"
		if hit {
			outcome = "hit"
		}
		s.obs.RecordSpan(j.tctx, "cache_lookup", j.id, lookupStart, s.now(),
			obs.StatusOK, "", map[string]string{"tier": "local", "outcome": outcome})
	}
	if hit {
		s.jobs[j.id] = j
		j.cached = true
		s.completeLocked(j, res, "")
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.CacheHits.Add(1)
		finishAdm("cache_hit", nil)
		return s.stamp(j.status()), nil
	}

	if waiters, ok := s.pending[key]; ok {
		// An identical config is already queued or running: share its
		// outcome instead of simulating twice.
		s.jobs[j.id] = j
		j.coalesced = true
		s.pending[key] = append(waiters, j)
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.CacheMisses.Add(1)
		s.metrics.JobsCoalesced.Add(1)
		finishAdm("coalesced", nil)
		return s.stamp(j.status()), nil
	}

	if !opt.internal && s.shouldSteal() {
		// The queue has grown past the steal threshold: offer the job to
		// the least-loaded peer instead of queueing it here. It still
		// registers under pending, so identical specs coalesce behind it,
		// and any steal failure re-enters the local queue (cluster.go).
		s.jobs[j.id] = j
		s.pending[key] = []*job{j}
		j.stolen = true
		s.metrics.JobsSubmitted.Add(1)
		s.metrics.CacheMisses.Add(1)
		finishAdm("steal_offered", nil)
		go s.stealOrRun(j)
		return s.stamp(j.status()), nil
	}

	if !s.queue.tryPush(j) {
		s.metrics.JobsRejected.Add(1)
		finishAdm("rejected", ErrQueueFull)
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.pending[key] = []*job{j}
	s.metrics.JobsSubmitted.Add(1)
	s.metrics.CacheMisses.Add(1)
	s.metrics.QueueDepth.Add(1)
	finishAdm("enqueued", nil)
	return s.stamp(j.status()), nil
}

// Status returns the current status of job id.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.stamp(j.status()), true
}

// Result returns the stored result JSON for a finished job. The boolean
// reports whether the job exists; a nil slice with a true boolean means
// the job has not produced a result (still in flight, or failed).
func (s *Server) Result(id string) ([]byte, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.result, s.stamp(j.status()), true
}

// Trace returns the telemetry capture of a finished trace job. The
// boolean reports whether the job exists; a nil capture with a true
// boolean means the job captured no trace (not a trace job, still in
// flight, or failed).
func (s *Server) Trace(id string) (*telemetry.Capture, JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, false
	}
	return j.capture, j.status(), true
}

// Wait blocks until job id finishes or ctx expires.
func (s *Server) Wait(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("unknown job %q", id)
	}
	select {
	case <-j.done:
		st, _ := s.Status(id)
		return st, nil
	case <-ctx.Done():
		return JobStatus{}, ctx.Err()
	}
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops intake and drains: workers finish the running jobs and
// everything already queued, then exit. It returns nil once the pool is
// idle, or ctx's error if the deadline expires first (in-flight
// simulations are then abandoned via the base context).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort() // cancel in-flight job contexts
		<-done
		return ctx.Err()
	}
}

// worker consumes the queue until it is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue.ch {
		s.metrics.QueueDepth.Add(-1)
		s.execute(j)
	}
}

// execute runs one job and completes every waiter coalesced behind it.
func (s *Server) execute(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.startedAt = s.now()
	s.mu.Unlock()
	s.metrics.ObserveQueueWait(j.startedAt.Sub(j.submittedAt).Seconds())
	// Retro-recorded: the wait is only known once a worker picks the job up.
	s.obs.RecordSpan(j.tctx, "queue_wait", j.id, j.submittedAt, j.startedAt, obs.StatusOK, "", nil)
	// The running gauge drops before each finishJob, which closes the
	// job's done channel: a client that sees the job finished must not
	// scrape it as still running.
	s.metrics.JobsRunning.Add(1)

	// Two-tier cache, remote leg: before simulating a key this replica
	// does not own, ask the ring owner's cache — a result computed
	// anywhere in the fleet is computed once (cluster.go).
	if res, ok := s.tryPeerFetch(j); ok {
		s.metrics.JobsRunning.Add(-1)
		s.finishJob(j, res, nil, "")
		return
	}

	mode := "detailed"
	if j.cfg.Sampling.Enabled {
		mode = "sampled"
		s.metrics.JobsSampled.Add(1)
	} else {
		s.metrics.JobsDetailed.Add(1)
	}
	if j.trace {
		s.metrics.JobsTraced.Add(1)
	}

	ctx := s.baseCtx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}

	type outcome struct {
		res sim.Result
		cap *telemetry.Capture
		err error
	}
	if ctx.Err() != nil {
		// Forced shutdown already fired: fail without spawning work.
		s.metrics.JobsRunning.Add(-1)
		s.finishJob(j, nil, nil, fmt.Sprintf("job aborted: %v", ctx.Err()))
		return
	}
	simStart := s.now()
	ch := make(chan outcome, 1)
	go func() {
		if j.trace {
			res, cap, err := s.runTraced(j.cfg, j.telemetryOpts())
			ch <- outcome{res, cap, err}
			return
		}
		res, err := s.runSim(j.cfg)
		ch <- outcome{res, nil, err}
	}()

	var resBytes []byte
	var capture *telemetry.Capture
	var errMsg string
	select {
	case out := <-ch:
		if out.err != nil {
			errMsg = out.err.Error()
		} else if b, err := json.Marshal(out.res); err != nil {
			errMsg = fmt.Sprintf("encoding result: %v", err)
		} else {
			resBytes = b
			capture = out.cap
			if wall := s.now().Sub(simStart).Seconds(); wall > 0 {
				s.metrics.ObserveSimSpeed(float64(out.res.Instrs) / wall)
			}
			if out.res.OSCores != nil {
				recStart := s.now()
				for _, cs := range out.res.OSCores.PerClass {
					s.metrics.ObserveOSCoreDepth(cs.Class, cs.MeanQueueDepth)
				}
				// The reconcile step folds the finished job's per-class
				// OS-core telemetry back into the live gauges.
				s.obs.RecordSpan(j.tctx, "oscore_reconcile", j.id, recStart, s.now(),
					obs.StatusOK, "", map[string]string{"classes": strconv.Itoa(len(out.res.OSCores.PerClass))})
			}
		}
	case <-ctx.Done():
		// The simulation goroutine cannot be interrupted mid-run; it is
		// abandoned and its eventual result discarded.
		errMsg = fmt.Sprintf("job aborted: %v", ctx.Err())
	}
	simStatus, simErr := obs.StatusOK, ""
	if errMsg != "" {
		simStatus, simErr = obs.StatusError, errMsg
	}
	s.obs.RecordSpan(j.tctx, "sim_execute", j.id, simStart, s.now(), simStatus, simErr,
		map[string]string{"mode": mode})
	if errMsg != "" {
		s.log.Warn("job failed", append(obs.LogContext(j.tctx),
			slog.String("job", j.id), slog.String("error", errMsg))...)
	}

	s.metrics.JobsRunning.Add(-1)
	s.finishJob(j, resBytes, capture, errMsg)
}

// finishJob caches a successful result and completes the job plus every
// waiter coalesced behind its key. Trace jobs never registered under
// pending, so they complete only themselves — but their result (which
// telemetry cannot have perturbed) still back-fills the cache.
func (s *Server) finishJob(j *job, resBytes []byte, capture *telemetry.Capture, errMsg string) {
	if errMsg == "" {
		s.cache.put(j.key, resBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.trace {
		j.capture = capture
		s.completeLocked(j, resBytes, errMsg)
		return
	}
	waiters := s.pending[j.key]
	delete(s.pending, j.key)
	for _, w := range waiters {
		s.completeLocked(w, resBytes, errMsg)
	}
}

// completeLocked finishes one job. Caller holds s.mu.
func (s *Server) completeLocked(j *job, res []byte, errMsg string) {
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.finishedAt = s.now()
	if errMsg != "" {
		j.state = StateFailed
		j.err = errMsg
		s.metrics.JobsFailed.Add(1)
	} else {
		j.state = StateDone
		j.result = res
		s.metrics.JobsCompleted.Add(1)
	}
	s.metrics.ObserveJobLatency(j.finishedAt.Sub(j.submittedAt).Seconds())
	close(j.done)
}
