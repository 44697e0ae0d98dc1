package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"offloadsim/internal/sim"
)

// TestFetchResultSingleFlight hammers one (peer, key) pair from many
// goroutines and requires the peer to see exactly one request: the
// dedup is what keeps a popular cold key from stampeding its owner.
func TestFetchResultSingleFlight(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		<-release
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	p := NewPeerClient(nil)
	const callers = 16
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	oks := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, ok, err := p.FetchResult(context.Background(), ts.URL, "k1")
			if err != nil {
				t.Errorf("fetch %d: %v", i, err)
			}
			results[i], oks[i] = b, ok
		}(i)
	}
	// Let the callers pile onto the in-flight request, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := hits.Load(); got != 1 {
		t.Errorf("peer saw %d requests, want 1 (single-flight)", got)
	}
	for i := range results {
		if !oks[i] || string(results[i]) != `{"ok":true}` {
			t.Errorf("caller %d got ok=%v body=%q", i, oks[i], results[i])
		}
	}
}

func TestFetchResultMissAndError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/peer/results/missing":
			http.NotFound(w, r)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()

	p := NewPeerClient(nil)
	if _, ok, err := p.FetchResult(context.Background(), ts.URL, "missing"); err != nil || ok {
		t.Errorf("miss: ok=%v err=%v, want clean miss", ok, err)
	}
	if _, _, err := p.FetchResult(context.Background(), ts.URL, "broken"); err == nil {
		t.Error("500 fetch reported no error")
	}
}

func TestExecuteBackpressure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	p := NewPeerClient(nil)
	_, err := p.Execute(context.Background(), ts.URL, sim.Spec{}, "")
	if !errors.Is(err, ErrPeerBusy) {
		t.Errorf("429 mapped to %v, want ErrPeerBusy", err)
	}
}

// TestStealerVictim exercises selection: least-loaded wins, draining
// and error peers are skipped, and nothing is picked when every peer is
// at least as loaded as the would-be thief.
func TestStealerVictim(t *testing.T) {
	mk := func(l LoadReport, fail bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fail {
				http.Error(w, "down", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			writeLoad(w, l)
		}))
	}
	light := mk(LoadReport{QueueDepth: 0, Running: 1}, false)
	heavy := mk(LoadReport{QueueDepth: 9, Running: 2}, false)
	draining := mk(LoadReport{QueueDepth: 0, Draining: true}, false)
	broken := mk(LoadReport{}, true)
	defer light.Close()
	defer heavy.Close()
	defer draining.Close()
	defer broken.Close()

	s := &Stealer{
		Client: NewPeerClient(nil),
		Peers:  []string{heavy.URL, light.URL, draining.URL, broken.URL},
	}
	victim, ok := s.Victim(context.Background(), 10)
	if !ok || victim != light.URL {
		t.Errorf("victim = %q ok=%v, want lightest peer %q", victim, ok, light.URL)
	}
	// A thief no more loaded than the best candidate finds no victim.
	if v, ok := s.Victim(context.Background(), 1); ok {
		t.Errorf("victim %q selected although self is equally light", v)
	}
	none := &Stealer{Client: NewPeerClient(nil)}
	if _, ok := none.Victim(context.Background(), 100); ok {
		t.Error("victim selected with no peers")
	}
}

func writeLoad(w http.ResponseWriter, l LoadReport) {
	_ = json.NewEncoder(w).Encode(l)
}
