package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs         submit a sim.Spec; 202 queued, 200 cache hit,
//	                      400 invalid, 429 queue full, 503 draining
//	GET  /v1/jobs/{id}    job status
//	GET  /v1/results/{id} result JSON of a finished job
//	GET  /v1/traces/{id}  telemetry trace of a finished trace job
//	                      (?format=chrome|jsonl, default chrome)
//	GET  /healthz         liveness (503 once draining)
//	GET  /metrics         Prometheus text metrics
//
// Fleet endpoints (docs/CLUSTER.md):
//
//	POST /v1/sweeps                  decompose a parameter grid across the
//	                                 fleet; streams NDJSON point results
//	GET  /v1/sweeps/{id}             sweep progress
//	GET  /v1/peer/results/{key}      peer cache probe (404 = not cached)
//	POST /v1/peer/execute            synchronous execution for a peer
//	GET  /v1/peer/load               queue-depth report for victim selection
//	GET  /v1/peer/spans/{traceid}    this replica's spans of one service trace
//
// Debug endpoints (docs/OBSERVABILITY.md; traces require Obs.Tracing):
//
//	GET  /v1/debug/traces/{id}  fleet-stitched service trace of a job,
//	                            sweep or raw trace ID
//	                            (?format=chrome|json|jsonl, default chrome)
//	GET  /v1/debug/ring         ring membership and key ownership counts
//	GET  /v1/debug/cache        result-cache contents and tier statistics
//
// Every POST route answers 413 to a body over maxBodyBytes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /v1/peer/results/{key}", s.handlePeerResult)
	mux.HandleFunc("POST /v1/peer/execute", s.handlePeerExecute)
	mux.HandleFunc("GET /v1/peer/load", s.handlePeerLoad)
	mux.HandleFunc("GET /v1/peer/spans/{traceid}", s.handlePeerSpans)
	mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleDebugTrace)
	mux.HandleFunc("GET /v1/debug/ring", s.handleDebugRing)
	mux.HandleFunc("GET /v1/debug/cache", s.handleDebugCache)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxBodyBytes caps the body of every POST route. A sweep request at
// the 4096-point cap needs under 100 KB, so the cap refuses no
// legitimate body; without it one request could make the daemon buffer
// any amount, and a 400 quotes a bad workload name back in full.
const maxBodyBytes = 1 << 20

// decodeBody reads r's body, at most maxBodyBytes of it, and decodes it
// into v, refusing unknown fields. what names the body in error
// messages. On failure it answers 413 (body over the cap) or 400 itself
// and returns false; on success it also returns the raw body.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			apiError{Error: fmt.Sprintf("%s exceeds %d bytes", what, maxBodyBytes)})
		return nil, false
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading " + what + ": " + err.Error()})
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "malformed " + what + ": " + err.Error()})
		return nil, false
	}
	return body, true
}

// refuse answers every admission error of the three POST routes and
// returns the code: 429 with Retry-After for a full queue, 503 while
// draining, 400 otherwise (an invalid spec or sweep).
func refuse(w http.ResponseWriter, err error) int {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, apiError{Error: err.Error()})
	return code
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sim.Spec
	body, ok := decodeBody(w, r, "job spec", &spec)
	if !ok {
		return
	}
	// An invalid spec is answered here: it is never forwarded or traced.
	req, err := newRequest(spec)
	if err != nil {
		refuse(w, err)
		return
	}
	internal := r.Header.Get(internalHeader) != ""

	// Root span of the service trace. A forwarded submission carries the
	// first replica's traceparent, so the owner's request span nests under
	// the forwarder's peer_forward span instead of opening a second trace.
	var reqSpan *obs.ActiveSpan
	if s.obs != nil {
		parent, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader))
		if !ok {
			parent = obs.RootContext(obs.TraceID(req.key, s.admissions.Add(1)))
		}
		reqSpan = s.obs.StartSpan(parent, "request")
	}
	sc := reqSpan.Context()

	if s.cluster != nil {
		owner := s.cluster.owner(req.key)
		route, rrStatus, rrErr := "local", obs.StatusOK, ""
		if owner != s.cluster.self {
			if internal {
				// Loop guard: an internally-marked request for a key this
				// replica does not own would forward forever under a
				// disagreeing ring view. Execute locally and flag it.
				rrStatus = obs.StatusError
				rrErr = "loop guard: internal submission for a key owned by " + owner + "; executing locally"
				s.log.Warn("ring loop guard tripped", append(obs.LogContext(sc),
					slog.String("owner", owner), slog.String("self", s.cluster.self))...)
			} else {
				route = "forward"
			}
		}
		if s.obs != nil {
			attrs := map[string]string{"owner": owner, "route": route}
			if rrErr != "" {
				attrs["loop_guard"] = "true"
			}
			at := s.now()
			s.obs.RecordSpan(sc, "ring_route", "", at, at, rrStatus, rrErr, attrs)
		}
		if route == "forward" {
			s.forwardSubmit(w, r, owner, body, sc)
			reqSpan.End()
			return
		}
	}

	st, err := s.submit(req, submitOpts{sc: sc})
	code := http.StatusAccepted
	switch {
	case err != nil:
		code = refuse(w, err)
	case st.Cached:
		code = http.StatusOK // served from cache, already done
	}
	reqSpan.SetAttr("code", strconv.Itoa(code))
	if err != nil {
		reqSpan.SetError(err.Error())
	}
	reqSpan.End()
	if err == nil {
		writeJSON(w, code, st)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, ok := s.Result(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	switch st.State {
	case StateDone:
		// The stored bytes are written verbatim so identical configs get
		// byte-identical result documents.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: st.Error})
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, apiError{Error: "job not finished: " + string(st.State)})
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	cap, st, ok := s.Trace(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown job"})
		return
	}
	if !st.Traced {
		writeJSON(w, http.StatusNotFound, apiError{Error: "job was not submitted with \"trace\": true"})
		return
	}
	switch st.State {
	case StateDone:
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: st.Error})
		return
	default:
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusConflict, apiError{Error: "job not finished: " + string(st.State)})
		return
	}
	if cap == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no trace captured"})
		return
	}
	write := telemetry.WriteChrome
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		// Loadable directly in Perfetto / chrome://tracing.
		w.Header().Set("Content-Type", "application/json")
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		write = telemetry.WriteJSONL
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown format %q (chrome, jsonl)", format)})
		return
	}
	// The export streams straight to the response; encoding errors past
	// the header can only be reported by aborting the body.
	_ = write(w, cap)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The ring-ownership gauge is a cache scan; refresh it per scrape
	// rather than on every cache mutation. Trace-store health likewise.
	s.metrics.RingOwnedKeys.Store(s.ownedCachedKeys())
	if s.obs != nil {
		s.metrics.SetTraceStats(s.obs.Stats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.metrics.WriteTo(w)
}
