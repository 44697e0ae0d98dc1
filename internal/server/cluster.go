package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
)

// internalHeader marks replica-to-replica HTTP traffic. A request
// carrying it is never forwarded again (routing loops are impossible
// even under disagreeing ring configurations) and never re-stolen.
const internalHeader = "X-Offsimd-Internal"

// ClusterOptions joins this server to a static-membership fleet. The
// zero value means single-replica operation (no routing, no peers); a
// Membership with a Self address enables the ring even with no peers,
// which is how a one-replica "fleet" runs the same code path for
// benchmarking.
type ClusterOptions struct {
	// Membership is the validated fleet configuration; build it with
	// cluster.ParseMembership so malformed addresses are rejected at
	// flag-parse time, not mid-request.
	Membership cluster.Membership
	// StealThreshold is the local queue depth above which an owner
	// forwards new jobs to the least-loaded peer instead of queueing
	// (work-stealing). 0 uses DefaultStealThreshold; negative disables
	// stealing.
	StealThreshold int
	// HTTPClient carries all replica-to-replica traffic (nil gets a
	// default client; tests inject one wired to in-process listeners).
	HTTPClient *http.Client
}

// DefaultStealThreshold is the queue depth that triggers stealing when
// ClusterOptions leaves it zero.
const DefaultStealThreshold = 8

// Enabled reports whether the options describe fleet membership.
func (o ClusterOptions) Enabled() bool { return o.Membership.Self != "" }

// clusterNode is the server's runtime view of the fleet: the ring, the
// peer client, and the steal policy.
type clusterNode struct {
	self           string
	peers          []string
	ring           *cluster.Ring
	client         *cluster.PeerClient
	stealer        *cluster.Stealer
	stealThreshold int // -1 disables
}

// newClusterNode builds the runtime from validated options. Membership
// was checked by cluster.ParseMembership, so ring construction cannot
// fail; a panic here means a caller bypassed validation.
func newClusterNode(o ClusterOptions) *clusterNode {
	ring, err := cluster.NewRing(o.Membership.All())
	if err != nil {
		panic(fmt.Sprintf("server: invalid cluster membership reached New: %v", err))
	}
	client := cluster.NewPeerClient(o.HTTPClient)
	threshold := o.StealThreshold
	if threshold == 0 {
		threshold = DefaultStealThreshold
	}
	if threshold < 0 {
		threshold = -1
	}
	return &clusterNode{
		self:           o.Membership.Self,
		peers:          o.Membership.Peers,
		ring:           ring,
		client:         client,
		stealer:        &cluster.Stealer{Client: client, Peers: o.Membership.Peers},
		stealThreshold: threshold,
	}
}

// owner returns the ring owner of a canonical key.
func (c *clusterNode) owner(key string) string { return c.ring.Owner(key) }

// stamp annotates outward-facing job statuses with the replica that
// holds the job, so clients of a routed fleet know where to poll.
func (s *Server) stamp(st JobStatus) JobStatus {
	if s.cluster != nil {
		st.Replica = s.cluster.self
	}
	return st
}

// shouldSteal reports whether a fresh non-internal job should be
// offered to a peer instead of the local queue: stealing is configured,
// peers exist, and the queue has grown past the threshold.
func (s *Server) shouldSteal() bool {
	c := s.cluster
	return c != nil && c.stealThreshold >= 0 && len(c.peers) > 0 &&
		s.queue.depth() > c.stealThreshold
}

// stealOrRun runs on its own goroutine for a job that was admitted
// while the queue was past the steal threshold. It offers the job to
// the least-loaded peer; the peer executes through its own queue and
// the result is written back through this (owner) replica's cache, so
// shard ownership of cached state is preserved. Any failure falls back
// to the local queue — stealing is an optimization, never a
// correctness dependency.
func (s *Server) stealOrRun(j *job) {
	selfScore := int64(s.queue.depth()) + s.metrics.JobsRunning.Load()
	if victim, ok := s.cluster.stealer.Victim(s.baseCtx, selfScore); ok {
		ctx := s.baseCtx
		if s.opts.JobTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
			defer cancel()
		}
		s.metrics.JobsStolen.Add(1)
		push := s.obs.StartSpan(j.tctx, "steal_push")
		push.SetJob(j.id)
		push.SetAttr("victim", victim)
		res, err := s.cluster.client.Execute(ctx, victim, j.spec, push.Context().Traceparent())
		if err == nil {
			push.End()
			s.finishJob(j, res, nil, "")
			return
		}
		// The victim bounced (full queue, drain, network): fall through
		// to local execution.
		push.SetError(err.Error())
		push.End()
		s.log.Warn("steal push failed, running locally", append(obs.LogContext(j.tctx),
			slog.String("job", j.id), slog.String("victim", victim), slog.String("error", err.Error()))...)
	}
	s.enqueueBlocking(j)
}

// enqueueBlocking pushes an already-admitted job onto the local queue,
// waiting out transient fullness: a job whose steal failed, or a sweep
// point admitted against a full queue (submitOpts.wait). It is the only
// loop that waits for queue room. The job was already accepted, so
// failing it here would turn backpressure into data loss.
func (s *Server) enqueueBlocking(j *job) {
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.finishJob(j, nil, nil, "job aborted: server draining before execution")
			return
		}
		if s.queue.tryPush(j) {
			s.metrics.QueueDepth.Add(1)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		select {
		case <-s.baseCtx.Done():
			s.finishJob(j, nil, nil, fmt.Sprintf("job aborted: %v", s.baseCtx.Err()))
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// tryPeerFetch is the result cache's second tier: when this replica is
// about to simulate a key it does not own, it first asks the key's ring
// owner. A hit means some replica already computed the result — the
// fleet-wide "computed once" guarantee — and costs one HTTP round trip
// instead of a simulation. Fetches of one key are single-flighted in
// the peer client.
func (s *Server) tryPeerFetch(j *job) ([]byte, bool) {
	c := s.cluster
	if c == nil || j.spec.Trace {
		return nil, false
	}
	owner := c.owner(j.key)
	if owner == c.self {
		return nil, false
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, 10*time.Second)
	defer cancel()
	var fetchStart time.Time
	if s.obs != nil {
		fetchStart = s.now()
	}
	b, ok, err := c.client.FetchResult(ctx, owner, j.key)
	if s.obs != nil {
		attrs := map[string]string{"tier": "peer", "owner": owner, "outcome": "miss"}
		status, errMsg := obs.StatusOK, ""
		switch {
		case err != nil:
			status, errMsg = obs.StatusError, err.Error()
		case ok:
			attrs["outcome"] = "hit"
		}
		s.obs.RecordSpan(j.tctx, "peer_cache_fetch", j.id, fetchStart, s.now(), status, errMsg, attrs)
	}
	if err != nil || !ok {
		s.metrics.PeerCacheMisses.Add(1)
		return nil, false
	}
	s.metrics.PeerCacheHits.Add(1)
	return b, true
}

// handlePeerResult serves GET /v1/peer/results/{key}: this replica's
// cache tier, readable by peers. Strictly a cache probe — a miss is a
// 404, never a computation.
func (s *Server) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	b, ok := s.cache.get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "result not cached"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handlePeerLoad serves GET /v1/peer/load: the queue-depth export that
// drives victim selection.
func (s *Server) handlePeerLoad(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, cluster.LoadReport{
		QueueDepth: s.metrics.QueueDepth.Load(),
		Running:    s.metrics.JobsRunning.Load(),
		Workers:    s.opts.Workers,
		Draining:   s.Draining(),
	})
}

// handlePeerExecute serves POST /v1/peer/execute: synchronous execution
// on behalf of another replica (steal victims and sweep fan-out). The
// job runs through the normal queue and worker pool — it is ordinary
// load and counts into the canonical queue metrics — but is marked
// internal, so it is never forwarded or re-stolen (no routing loops).
func (s *Server) handlePeerExecute(w http.ResponseWriter, r *http.Request) {
	var spec sim.Spec
	if _, ok := decodeBody(w, r, "job spec", &spec); !ok {
		return
	}
	// The caller's traceparent (steal_push or sweep fan-out span) stitches
	// this replica's execution into the originating service trace.
	var exec *obs.ActiveSpan
	sc := obs.SpanContext{}
	if parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader)); ok {
		exec = s.obs.StartSpan(parent, "peer_execute")
		sc = exec.Context()
	}
	var st JobStatus
	req, err := newRequest(spec)
	if err == nil {
		st, err = s.submit(req, submitOpts{internal: true, sc: sc})
	}
	if err != nil {
		exec.SetError(err.Error())
		exec.End()
		refuse(w, err)
		return
	}
	exec.SetJob(st.ID)
	s.metrics.PeerExecutes.Add(1)
	res, err := s.awaitResult(r.Context(), st.ID)
	if err != nil {
		code := http.StatusInternalServerError
		if r.Context().Err() != nil {
			code, err = http.StatusGatewayTimeout, fmt.Errorf("peer execute interrupted: %w", err)
		}
		exec.SetError(err.Error())
		exec.End()
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	exec.End()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

// forwardSubmit proxies a job submission to its ring owner and relays
// the owner's response verbatim, so the client sees exactly the status
// document (including the owner's "replica" field) it would have
// gotten by submitting there directly.
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, owner string, body []byte, parent obs.SpanContext) {
	s.metrics.JobsForwarded.Add(1)
	fwd := s.obs.StartSpan(parent, "peer_forward")
	fwd.SetAttr("owner", owner)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		owner+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		fwd.SetError(err.Error())
		fwd.End()
		writeJSON(w, http.StatusBadGateway, apiError{Error: "forwarding to owner: " + err.Error()})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(internalHeader, "forwarded")
	if tp := fwd.Context().Traceparent(); tp != "" {
		req.Header.Set(obs.TraceHeader, tp)
	}
	resp, err := s.cluster.client.HTTP.Do(req)
	if err != nil {
		fwd.SetError(err.Error())
		fwd.End()
		s.log.Warn("forward to ring owner failed", append(obs.LogContext(parent),
			slog.String("owner", owner), slog.String("error", err.Error()))...)
		writeJSON(w, http.StatusBadGateway, apiError{Error: fmt.Sprintf("forwarding to owner %s: %v", owner, err)})
		return
	}
	defer resp.Body.Close()
	fwd.SetAttr("code", strconv.Itoa(resp.StatusCode))
	if resp.StatusCode >= 400 {
		fwd.SetError(fmt.Sprintf("owner replied HTTP %d", resp.StatusCode))
	}
	fwd.End()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// ownedCachedKeys counts cache entries whose key this replica owns per
// the ring — the offsimd_ring_owned_keys gauge. Without a ring every
// cached key is "owned".
func (s *Server) ownedCachedKeys() int64 {
	keys := s.cache.keys()
	if s.cluster == nil {
		return int64(len(keys))
	}
	var owned int64
	for _, k := range keys {
		if s.cluster.owner(k) == s.cluster.self {
			owned++
		}
	}
	return owned
}
