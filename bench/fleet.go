package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
	"offloadsim/internal/server"
)

// fleetReplicas is the in-process offsimd fleet size; each replica runs one
// worker, so the fleet runs two simulations at once, sharing the one CPU
// the fleet workloads run on.
const fleetReplicas = 2

// fleet is an in-process offsimd fleet on loopback listeners, plus the
// one HTTP client the benchmark drives it with.
type fleet struct {
	urls    []string
	servers map[string]*server.Server
	https   []*http.Server
	serving sync.WaitGroup
	// client holds at most one connection per replica: load comes from no
	// more connections than the host has CPUs.
	client *http.Client
	// peers carries the replicas' traffic to each other.
	peers *http.Client
}

// Replicas advertise fixed names, not their loopback ports: the hash ring
// places replicas by address, so the share of keys each one owns, and
// with it how evenly the two workers are loaded, is the same in every
// run. A dialer maps each name to its listener.
func replicaURL(i int) string { return fmt.Sprintf("http://replica-%d.offbench", i) }

func loopbackTransport(addrs map[string]string) *http.Transport {
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
		DisableCompression: true,
	}
}

func startFleet(traced bool) (*fleet, error) {
	f := &fleet{servers: map[string]*server.Server{}}
	addrs := map[string]string{}
	lns := make([]net.Listener, fleetReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		f.urls = append(f.urls, replicaURL(i))
		addrs[strings.TrimPrefix(replicaURL(i), "http://")+":80"] = ln.Addr().String()
	}
	load := loopbackTransport(addrs)
	load.MaxConnsPerHost, load.MaxIdleConnsPerHost = 1, 1
	f.client = &http.Client{Timeout: 2 * time.Minute, Transport: load}
	f.peers = &http.Client{Transport: loopbackTransport(addrs)}
	for i, self := range f.urls {
		var others []string
		for j, u := range f.urls {
			if j != i {
				others = append(others, u)
			}
		}
		mem, err := cluster.ParseMembership(self, others)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		srv := server.New(server.Options{
			QueueSize: 4096,
			Workers:   1,
			Cluster:   server.ClusterOptions{Membership: mem, StealThreshold: -1, HTTPClient: f.peers},
			Obs:       server.ObsOptions{Tracing: traced, MaxTraces: 1 << 16},
		})
		srv.Start()
		hs := &http.Server{Handler: srv.Handler()}
		f.servers[self] = srv
		f.https = append(f.https, hs)
		f.serving.Add(1)
		go func(ln net.Listener) {
			defer f.serving.Done()
			_ = hs.Serve(ln)
		}(lns[i])
	}
	for _, u := range f.urls {
		if _, err := f.get(u + "/healthz"); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close stops the listeners and drains every replica.
func (f *fleet) close() {
	for _, hs := range f.https {
		_ = hs.Close()
	}
	f.serving.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, srv := range f.servers {
		_ = srv.Shutdown(ctx)
	}
	f.client.CloseIdleConnections()
	f.peers.CloseIdleConnections()
}

// httpError is a non-2xx answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func isStatus(err error, code int) bool {
	var he *httpError
	return errors.As(err, &he) && he.code == code
}

func (f *fleet) do(req *http.Request) ([]byte, error) {
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &httpError{resp.StatusCode, string(b)}
	}
	return b, nil
}

func (f *fleet) get(url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return f.do(req)
}

// submit posts a job spec and returns the status the fleet answered with.
func (f *fleet) submit(url string, body []byte) (server.JobStatus, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return server.JobStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	b, err := f.do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("decoding job status: %w", err)
	}
	return st, nil
}

// wait blocks until job id finishes on the replica that holds it. It
// uses Server.Wait in process: polling over HTTP would quantize latency.
func (f *fleet) wait(replica, id string) error {
	srv, ok := f.servers[replica]
	if !ok {
		return fmt.Errorf("job %s on unknown replica %q", id, replica)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := srv.Wait(ctx, id)
	if err != nil {
		return err
	}
	if st.State != server.StateDone {
		return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	return nil
}

// fleetCounters are the fleet-wide totals of the server counters the
// per-layer service metrics read.
type fleetCounters struct {
	hits, misses, forwarded float64
}

func (f *fleet) counters() fleetCounters {
	var c fleetCounters
	for _, srv := range f.servers {
		m := srv.Metrics()
		c.hits += float64(m.CacheHits.Load())
		c.misses += float64(m.CacheMisses.Load())
		c.forwarded += float64(m.JobsForwarded.Load())
	}
	return c
}

// traceRef names a job or sweep and the replica that can resolve it.
type traceRef struct{ replica, id string }

// spans downloads the fleet-stitched service trace of every ref and
// returns each span once.
func (f *fleet) spans(refs []traceRef) ([]obs.Span, error) {
	seen := map[string]bool{}
	var out []obs.Span
	for _, r := range refs {
		b, err := f.get(r.replica + "/v1/debug/traces/" + r.id + "?format=json")
		if err != nil {
			return nil, fmt.Errorf("trace of %s: %w", r.id, err)
		}
		var spans []obs.Span
		if err := json.Unmarshal(b, &spans); err != nil {
			return nil, fmt.Errorf("trace of %s: %w", r.id, err)
		}
		for _, s := range spans {
			if !seen[s.TraceID+s.SpanID] {
				seen[s.TraceID+s.SpanID] = true
				out = append(out, s)
			}
		}
	}
	obs.SortSpans(out)
	return out, nil
}

// cachedResult fetches a result document from whichever replica's cache
// holds key (the owner, for anything the fleet computed).
func (f *fleet) cachedResult(key string) ([]byte, error) {
	for _, u := range f.urls {
		b, err := f.get(u + "/v1/peer/results/" + key)
		if err == nil {
			return b, nil
		}
		if !isStatus(err, http.StatusNotFound) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("result %s is in no replica's cache", key)
}
