package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
)

// sweepHeader is the first NDJSON line of POST /v1/sweeps.
type sweepHeader struct {
	SweepID string `json:"sweep_id"`
	Points  int    `json:"points"`
}

// runSweepPoint executes one grid point fleet-wide: it computes the
// point's canonical key, routes to the ring owner (synchronous peer
// execute), and falls back to local execution when the fleet cannot
// help. Either way the result document is the same bytes — routing is
// a performance decision, never a correctness one.
func (s *Server) runSweepPoint(ctx context.Context, req cluster.SweepRequest, p cluster.Point) ([]byte, error) {
	spec := req.PointSpec(p)
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	key, err := sim.CanonicalKey(cfg)
	if err != nil {
		return nil, err
	}
	// Per-point fan-out span under the sweep root carried in ctx. Points
	// run concurrently, so sibling IDs come from explicit ordinals — the
	// grid index, or the workload position for baseline (Index -1) points
	// — keeping the span tree deterministic regardless of finish order.
	var ps *obs.ActiveSpan
	if parent := obs.FromContext(ctx); s.obs != nil && parent.Valid() {
		name, ord := "sweep_point", p.Index
		if p.Index < 0 {
			name, ord = "sweep_baseline", 0
			for i, wl := range req.Workloads {
				if wl == p.Workload {
					ord = i
					break
				}
			}
		}
		ps = s.obs.StartSpanOrdinal(parent, name, ord)
		ps.SetAttr("workload", p.Workload)
		ps.SetAttr("policy", p.Policy)
	}
	b, err := s.routeSweepPoint(ctx, spec, key, ps.Context())
	if ps != nil {
		if err != nil {
			ps.SetError(err.Error())
		}
		ps.End()
	}
	return b, err
}

// routeSweepPoint sends one decomposed point to its ring owner, falling
// back to local execution when the fleet cannot help.
func (s *Server) routeSweepPoint(ctx context.Context, spec sim.Spec, key string, sc obs.SpanContext) ([]byte, error) {
	if c := s.cluster; c != nil {
		if owner := c.owner(key); owner != c.self {
			specJSON, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			for attempt := 0; ; attempt++ {
				b, err := c.client.Execute(ctx, owner, specJSON, sc.Traceparent())
				if err == nil {
					return b, nil
				}
				if !errors.Is(err, cluster.ErrPeerBusy) || attempt >= 50 {
					// Owner down or persistently saturated: compute the
					// point here. The two-tier cache check in the execute
					// path still consults the owner first, so a transient
					// failure cannot cause a duplicate simulation unless
					// the owner is truly unreachable.
					break
				}
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(50 * time.Millisecond):
				}
			}
		}
	}
	return s.runPointLocal(ctx, spec, sc)
}

// runPointLocal submits spec to this replica's own queue (honoring
// backpressure by waiting, not failing: a sweep is a batch client) and
// returns the finished result document.
func (s *Server) runPointLocal(ctx context.Context, spec sim.Spec, sc obs.SpanContext) ([]byte, error) {
	var st JobStatus
	for {
		var err error
		st, err = s.submit(spec, submitOpts{sc: sc})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	if _, err := s.Wait(ctx, st.ID); err != nil {
		return nil, err
	}
	res, fin, ok := s.Result(st.ID)
	if !ok {
		return nil, fmt.Errorf("sweep job %s vanished", st.ID)
	}
	if fin.State != StateDone {
		return nil, fmt.Errorf("sweep job %s failed: %s", st.ID, fin.Error)
	}
	return res, nil
}

// StartSweep validates req, registers a new sweep and launches its
// execution on the server's base context — a sweep outlives the
// submitting HTTP request, because its results belong to the fleet
// cache either way.
func (s *Server) StartSweep(req cluster.SweepRequest) (*cluster.Sweep, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.sweepSeq++
	id := fmt.Sprintf("s-%08d", s.sweepSeq)
	s.mu.Unlock()

	// Sweep root span: every fan-out point stitches under it through the
	// context handed to the coordinator. The sweep ID binds to the trace
	// like a job ID, so /v1/debug/traces/{sweep-id} resolves it.
	ctx := s.baseCtx
	var root *obs.ActiveSpan
	if s.obs != nil {
		root = s.obs.StartSpan(obs.RootContext(obs.TraceID("sweep:"+id, s.admissions.Add(1))), "sweep")
		root.SetJob(id)
		ctx = obs.ContextWith(ctx, root.Context())
	}

	sw, err := s.coord.Start(ctx, id, req)
	if err != nil {
		if root != nil {
			root.SetError(err.Error())
			root.End()
		}
		return nil, err
	}
	if root != nil {
		root.SetAttr("points", fmt.Sprint(sw.Total()))
		go func() {
			// The root closes when the last point lands; Wait only errors
			// on server shutdown, in which case the span ends then too.
			_ = sw.Wait(s.baseCtx)
			root.End()
		}()
	}
	s.mu.Lock()
	s.sweeps[id] = sw
	s.mu.Unlock()
	s.metrics.Sweeps.Add(1)
	s.metrics.SweepPoints.Add(uint64(sw.Total()))
	return sw, nil
}

// SweepProgress returns the live accounting of sweep id.
func (s *Server) SweepProgress(id string) (cluster.Progress, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return cluster.Progress{}, false
	}
	return sw.Progress(), true
}

// handleSweepSubmit serves POST /v1/sweeps: decompose the grid, fan it
// across the fleet, and stream per-point results back as NDJSON in
// index order — a header line, one line per point as it completes, and
// a final progress summary. Point lines are deterministic bytes: the
// same grid streams identical lines no matter which replicas computed
// the points or in which order they finished.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req cluster.SweepRequest
	if _, ok := decodeBody(w, r, "sweep request", &req); !ok {
		return
	}
	sw, err := s.StartSweep(req)
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Offsimd-Sweep-Id", sw.ID)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := emit(sweepHeader{SweepID: sw.ID, Points: sw.Total()}); err != nil {
		return
	}
	// Stream until done or the client goes away; the sweep itself keeps
	// running in the background and stays pollable via GET /v1/sweeps.
	if err := sw.Stream(r.Context(), func(pr *cluster.PointResult) error {
		return emit(pr)
	}); err != nil {
		return
	}
	_ = emit(sw.Progress())
}

// handleSweepStatus serves GET /v1/sweeps/{id}.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	prog, ok := s.SweepProgress(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown sweep"})
		return
	}
	writeJSON(w, http.StatusOK, prog)
}
