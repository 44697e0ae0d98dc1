package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
)

// stubFleet is one real traced replica whose peers are stub HTTP
// handlers under test control — the rig for exercising peer-call
// failure paths (timeouts, 5xx, backpressure) deterministically, and
// for asserting both the job outcome and the span the failure emitted.
type stubFleet struct {
	srv   *Server
	ts    *httptest.Server
	self  string
	peers []string
	ring  *cluster.Ring
}

func newStubFleet(t *testing.T, stubs []http.Handler, mutate func(*Options)) *stubFleet {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	self := "http://" + ln.Addr().String()
	peers := make([]string, len(stubs))
	for i, h := range stubs {
		ps := httptest.NewServer(h)
		t.Cleanup(ps.Close)
		peers[i] = ps.URL
	}
	mem, err := cluster.ParseMembership(self, peers)
	if err != nil {
		t.Fatalf("membership: %v", err)
	}
	opts := Options{
		QueueSize: 64,
		Workers:   4,
		Cluster:   ClusterOptions{Membership: mem, StealThreshold: -1},
		Obs:       ObsOptions{Tracing: true},
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv := New(opts)
	srv.Start()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	ring, err := cluster.NewRing(append([]string{self}, peers...))
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	return &stubFleet{srv: srv, ts: ts, self: self, peers: peers, ring: ring}
}

// specOwnedByPeer scans seeds for a spec whose ring owner is peer i.
func (sf *stubFleet) specOwnedByPeer(t *testing.T, i int) JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		spec := smallSpec(seed)
		if sf.ring.Owner(keyOf(t, spec)) == sf.peers[i] {
			return spec
		}
	}
	t.Fatalf("no spec owned by peer %d in 10000 seeds", i)
	return JobSpec{}
}

// spanByName returns the first span with the given name out of the
// replica's stored trace, failing the test if it is absent.
func spanByName(t *testing.T, spans []obs.Span, name string) obs.Span {
	t.Helper()
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no %q span in trace (got %d spans)", name, len(spans))
	return obs.Span{}
}

// requestTrace fetches the spans of the first handler-created trace for
// spec: trace IDs are deterministic, so the first admission of a key
// always lands on trace obs.TraceID(key, 1).
func (sf *stubFleet) requestTrace(t *testing.T, spec JobSpec) []obs.Span {
	t.Helper()
	return sf.srv.obs.Spans(obs.TraceID(keyOf(t, spec), 1))
}

// TestForwardTimeoutEmitsErrorSpan points a submission at a ring owner
// that never answers within the client timeout: the client must get a
// 502 and the forwarding replica must record an error-status
// peer_forward span under the request trace.
func TestForwardTimeoutEmitsErrorSpan(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
		w.WriteHeader(http.StatusOK)
	})
	sf := newStubFleet(t, []http.Handler{slow}, func(o *Options) {
		o.Cluster.HTTPClient = &http.Client{Timeout: 100 * time.Millisecond}
	})
	spec := sf.specOwnedByPeer(t, 0)
	body, _ := json.Marshal(spec)
	code, _, apiErr := postJob(t, sf.ts, body)
	if code != http.StatusBadGateway {
		t.Fatalf("forward to dead owner: HTTP %d (%s), want 502", code, apiErr.Error)
	}
	if apiErr.Error == "" || !strings.Contains(apiErr.Error, "forwarding to owner") {
		t.Fatalf("502 body does not explain the forward failure: %q", apiErr.Error)
	}

	spans := sf.requestTrace(t, spec)
	fwd := spanByName(t, spans, "peer_forward")
	if fwd.Status != obs.StatusError || fwd.Error == "" {
		t.Fatalf("peer_forward span status = %q (error %q), want error status", fwd.Status, fwd.Error)
	}
	if route := spanByName(t, spans, "ring_route"); route.Attrs["route"] != "forward" {
		t.Fatalf("ring_route route attr = %q, want forward", route.Attrs["route"])
	}
}

// TestForwardPeerErrorRelayed checks a 5xx from the ring owner is
// relayed to the client verbatim and recorded as an error-status
// peer_forward span carrying the response code.
func TestForwardPeerErrorRelayed(t *testing.T) {
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "stub owner draining"})
	})
	sf := newStubFleet(t, []http.Handler{boom}, nil)
	spec := sf.specOwnedByPeer(t, 0)
	body, _ := json.Marshal(spec)
	code, _, apiErr := postJob(t, sf.ts, body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("owner 503 relayed as HTTP %d, want 503", code)
	}
	if apiErr.Error != "stub owner draining" {
		t.Fatalf("owner error body not relayed verbatim: %q", apiErr.Error)
	}

	fwd := spanByName(t, sf.requestTrace(t, spec), "peer_forward")
	if fwd.Status != obs.StatusError {
		t.Fatalf("peer_forward span status = %q, want error", fwd.Status)
	}
	if fwd.Attrs["code"] != "503" {
		t.Fatalf("peer_forward code attr = %q, want 503", fwd.Attrs["code"])
	}
}

// TestLoopGuardExecutesLocally sends an internally-marked submission to
// a replica that does NOT own the key: the loop guard must execute it
// locally (the job completes) while flagging the routing anomaly with
// an error-status ring_route span.
func TestLoopGuardExecutesLocally(t *testing.T) {
	// The stub owner answers peer cache probes with a clean miss so the
	// execute path falls through to a local simulation.
	miss := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "result not cached"})
	})
	sf := newStubFleet(t, []http.Handler{miss}, nil)
	spec := sf.specOwnedByPeer(t, 0)
	body, _ := json.Marshal(spec)

	req, err := http.NewRequest(http.MethodPost, sf.ts.URL+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(internalHeader, "forwarded")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("loop-guarded submit: HTTP %d, want 202", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := sf.srv.Wait(ctx, st.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("loop-guarded job did not complete locally: %v / %+v", err, fin)
	}

	spans := sf.requestTrace(t, spec)
	route := spanByName(t, spans, "ring_route")
	if route.Status != obs.StatusError {
		t.Fatalf("ring_route span status = %q, want error (loop guard)", route.Status)
	}
	if route.Attrs["loop_guard"] != "true" || route.Attrs["route"] != "local" {
		t.Fatalf("ring_route attrs = %v, want loop_guard=true route=local", route.Attrs)
	}
	spanByName(t, spans, "sim_execute") // it really ran here
}

// TestStealPushBackpressureFallsBackLocal wedges a single-worker
// replica past its steal threshold against a peer that answers every
// execute with 429: the steal must fail with an error-status steal_push
// span and the job must still complete locally once the worker frees.
func TestStealPushBackpressureFallsBackLocal(t *testing.T) {
	busy := http.NewServeMux()
	busy.HandleFunc("GET /v1/peer/load", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cluster.LoadReport{Workers: 4})
	})
	busy.HandleFunc("POST /v1/peer/execute", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "stub victim full"})
	})
	busy.HandleFunc("GET /v1/peer/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "result not cached"})
	})

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)

	sf := newStubFleet(t, []http.Handler{busy}, func(o *Options) {
		o.Workers = 1
		o.Cluster.StealThreshold = 1
	})
	inner := sf.srv.runSim
	sf.srv.runSim = func(c sim.Config) (sim.Result, error) {
		<-gate
		return inner(c)
	}

	// Fill the single-worker replica past the threshold, then submit the
	// job that must enter the steal path. Specs are distinct (different
	// seeds) so nothing coalesces, and all are owned by self so nothing
	// forwards.
	var stolen JobStatus
	seed, submitted := uint64(0), 0
	for submitted < 5 {
		seed++
		spec := smallSpec(seed)
		if sf.ring.Owner(keyOf(t, spec)) != sf.self {
			continue
		}
		submitted++
		st, err := sf.srv.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", submitted, err)
		}
		if st.Stolen {
			stolen = st
			break
		}
	}
	if stolen.ID == "" {
		t.Fatal("no submission entered the steal path with a wedged single worker and threshold 1")
	}
	// The steal fails against the 429 stub; free the worker so the local
	// fallback can drain everything.
	openGate()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fin, err := sf.srv.Wait(ctx, stolen.ID)
	if err != nil || fin.State != StateDone {
		t.Fatalf("steal-fallback job did not complete: %v / %+v", err, fin)
	}

	tid, ok := sf.srv.obs.TraceIDFor(stolen.ID)
	if !ok {
		t.Fatalf("no trace bound to stolen job %s", stolen.ID)
	}
	spans := sf.srv.obs.Spans(tid)
	push := spanByName(t, spans, "steal_push")
	if push.Status != obs.StatusError {
		t.Fatalf("steal_push span status = %q, want error after 429", push.Status)
	}
	if !strings.Contains(push.Error, "peer queue full") {
		t.Fatalf("steal_push span error = %q, want ErrPeerBusy text", push.Error)
	}
	if push.Attrs["victim"] != sf.peers[0] {
		t.Fatalf("steal_push victim attr = %q, want %q", push.Attrs["victim"], sf.peers[0])
	}
	spanByName(t, spans, "sim_execute") // local fallback really ran it
}
