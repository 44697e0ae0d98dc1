package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"offloadsim/internal/obs"
)

// ErrPeerBusy reports that a peer rejected work with 429 backpressure;
// callers fall back to another victim or to local execution.
var ErrPeerBusy = errors.New("cluster: peer queue full")

// LoadReport is a replica's instantaneous load, served by
// GET /v1/peer/load and consumed by the stealer's victim selection.
type LoadReport struct {
	// QueueDepth is the number of jobs waiting in the bounded queue.
	QueueDepth int64 `json:"queue_depth"`
	// Running is the number of jobs currently simulating.
	Running int64 `json:"running"`
	// Workers is the worker-pool size (capacity context for the above).
	Workers int `json:"workers"`
	// Draining reports that the replica is shutting down and must not
	// be offered new work.
	Draining bool `json:"draining"`
}

// Score orders replicas by how much work is ahead of a new arrival.
func (l LoadReport) Score() int64 { return l.QueueDepth + l.Running }

// PeerClient is the HTTP side of fleet coordination: result fetches
// from a peer's cache tier (single-flighted), load queries, and
// synchronous remote execution for stolen or fanned-out jobs.
type PeerClient struct {
	// HTTP is the transport; per-call deadlines come from contexts.
	HTTP *http.Client
	sf   singleflight
}

// NewPeerClient builds a client around httpClient (nil gets a default
// with sane connection reuse and no global timeout — simulations are
// long; per-call contexts bound the waiting).
func NewPeerClient(httpClient *http.Client) *PeerClient {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &PeerClient{HTTP: httpClient}
}

// FetchResult asks base's cache tier for the result bytes of key via
// GET /v1/peer/results/{key}. The middle return is false on a clean
// cache miss (HTTP 404). Concurrent fetches of one (base, key) pair
// collapse into a single request: the fleet-wide "computed once"
// guarantee must not be undermined by a thundering herd of fetches.
func (p *PeerClient) FetchResult(ctx context.Context, base, key string) ([]byte, bool, error) {
	return p.sf.do(base+"|"+key, func() ([]byte, bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peer/results/"+key, nil)
		if err != nil {
			return nil, false, err
		}
		resp, err := p.HTTP.Do(req)
		if err != nil {
			return nil, false, err
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return nil, false, err
			}
			return b, true, nil
		case http.StatusNotFound:
			return nil, false, nil
		default:
			return nil, false, fmt.Errorf("cluster: peer %s result fetch: HTTP %d", base, resp.StatusCode)
		}
	})
}

// Load fetches base's load report with a short deadline: victim
// selection must never stall the serving path behind a dead peer.
func (p *PeerClient) Load(ctx context.Context, base string) (LoadReport, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peer/load", nil)
	if err != nil {
		return LoadReport{}, err
	}
	resp, err := p.HTTP.Do(req)
	if err != nil {
		return LoadReport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LoadReport{}, fmt.Errorf("cluster: peer %s load: HTTP %d", base, resp.StatusCode)
	}
	var l LoadReport
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return LoadReport{}, err
	}
	return l, nil
}

// Execute runs specJSON (a sim.Spec document) on base via
// POST /v1/peer/execute and blocks until the result JSON comes back.
// The receiving replica executes locally — no re-routing, no re-steal —
// through its own queue and workers, so the work shows up in its
// canonical queue metrics. 429 maps to ErrPeerBusy. A non-empty
// traceparent rides along in the trace-propagation header, stitching the
// remote execution into the caller's service trace
// (docs/OBSERVABILITY.md).
func (p *PeerClient) Execute(ctx context.Context, base string, specJSON []byte, traceparent string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/peer/execute", bytes.NewReader(specJSON))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(obs.TraceHeader, traceparent)
	}
	resp, err := p.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return body, nil
	case http.StatusTooManyRequests:
		return nil, ErrPeerBusy
	default:
		return nil, fmt.Errorf("cluster: peer %s execute: HTTP %d: %s", base, resp.StatusCode, truncate(body, 200))
	}
}

// FetchSpans retrieves base's stored spans of one service trace via
// GET /v1/peer/spans/{traceid} — the fleet-stitching leg of
// /v1/debug/traces. An empty list is a normal answer (that replica
// touched no part of the trace), not an error.
func (p *PeerClient) FetchSpans(ctx context.Context, base, traceID string) ([]obs.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/peer/spans/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("cluster: peer %s span fetch: HTTP %d: %s", base, resp.StatusCode, truncate(body, 200))
	}
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return nil, err
	}
	return spans, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// singleflight collapses concurrent calls with one key into a single
// execution whose outcome every caller shares. Hand-rolled because the
// module is dependency-free by policy.
type singleflight struct {
	mu sync.Mutex
	m  map[string]*sfCall
}

type sfCall struct {
	done chan struct{}
	val  []byte
	ok   bool
	err  error
}

func (g *singleflight) do(key string, fn func() ([]byte, bool, error)) ([]byte, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*sfCall)
	}
	if c, inflight := g.m[key]; inflight {
		g.mu.Unlock()
		<-c.done
		return c.val, c.ok, c.err
	}
	c := &sfCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.ok, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.ok, c.err
}
