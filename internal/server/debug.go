package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/obs"
)

// handlePeerSpans serves GET /v1/peer/spans/{traceid}: this replica's
// stored spans of one service trace, as a JSON array. Peers call it to
// stitch fleet-wide traces; an empty array (not 404) means this replica
// touched no part of the trace, which is a perfectly normal answer.
func (s *Server) handlePeerSpans(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "tracing disabled on this replica"})
		return
	}
	spans := s.obs.Spans(r.PathValue("traceid"))
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, spans)
}

// handleDebugTrace serves GET /v1/debug/traces/{id}: the fleet-stitched
// service trace of a job ID, sweep ID, or raw 32-hex trace ID. The local
// store resolves the ID; every peer is then asked for its spans of the
// same trace, so a stolen or forwarded job renders as one tree spanning
// replicas. Formats: chrome (default, loads in Perfetto), json (span
// array), jsonl (one span per line, cmd/tracedump input).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "service tracing disabled; start with tracing enabled"})
		return
	}
	id := r.PathValue("id")
	traceID := id
	if !obs.IsTraceID(id) {
		var ok bool
		traceID, ok = s.obs.TraceIDFor(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no service trace recorded for %q", id)})
			return
		}
	}
	spans := s.collectFleetSpans(r.Context(), traceID)
	if len(spans) == 0 {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("no spans stored for trace %s", traceID)})
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChrome(w, spans)
	case "json":
		writeJSON(w, http.StatusOK, spans)
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = obs.WriteJSONL(w, spans)
	default:
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("unknown format %q (chrome, json, jsonl)", format)})
	}
}

// collectFleetSpans merges this replica's spans of traceID with every
// peer's, best-effort: an unreachable peer costs that peer's spans, not
// the whole response. The merge is sorted, so output bytes do not depend
// on which peer answered first.
func (s *Server) collectFleetSpans(ctx context.Context, traceID string) []obs.Span {
	spans := s.obs.Spans(traceID)
	if s.cluster == nil || len(s.cluster.peers) == 0 {
		return spans
	}
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range s.cluster.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			remote, err := s.cluster.client.FetchSpans(ctx, peer, traceID)
			if err != nil {
				s.log.Warn("peer span fetch failed",
					"peer", peer, "trace_id", traceID, "error", err.Error())
				return
			}
			mu.Lock()
			spans = append(spans, remote...)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	obs.SortSpans(spans)
	return spans
}

// debugRing is the GET /v1/debug/ring document.
type debugRing struct {
	// Enabled reports fleet membership; false means single-replica.
	Enabled bool `json:"enabled"`
	// Self is this replica's advertised address ("" single-replica).
	Self string `json:"self,omitempty"`
	// VNodesPerMember is how many virtual nodes each member
	// contributes to the ring.
	VNodesPerMember int `json:"vnodes_per_member,omitempty"`
	// StealThreshold is the queue depth that triggers stealing (-1 off).
	StealThreshold int `json:"steal_threshold,omitempty"`
	// Members lists every replica with its local-cache ownership split.
	Members []debugRingMember `json:"members,omitempty"`
	// CachedKeys is the local cache entry count (all replicas' view of
	// their own shard; single-replica reports the whole cache).
	CachedKeys int `json:"cached_keys"`
}

// debugRingMember is one replica's row in the ring document.
type debugRingMember struct {
	Replica string `json:"replica"`
	Self    bool   `json:"self,omitempty"`
	// OwnedCachedKeys counts entries of THIS replica's cache that the
	// ring assigns to that member — nonzero rows other than self reveal
	// entries created by stealing or pre-rebalance history.
	OwnedCachedKeys int `json:"owned_cached_keys"`
}

// handleDebugRing serves GET /v1/debug/ring: membership, ring geometry
// and where this replica's cached keys hash to.
func (s *Server) handleDebugRing(w http.ResponseWriter, _ *http.Request) {
	keys := s.cache.keys()
	doc := debugRing{CachedKeys: len(keys)}
	if c := s.cluster; c != nil {
		doc.Enabled = true
		doc.Self = c.self
		doc.VNodesPerMember = cluster.DefaultVNodes
		doc.StealThreshold = c.stealThreshold
		owned := make(map[string]int)
		for _, k := range keys {
			owned[c.owner(k)]++
		}
		for _, m := range c.ring.Members() {
			doc.Members = append(doc.Members, debugRingMember{
				Replica:         m,
				Self:            m == c.self,
				OwnedCachedKeys: owned[m],
			})
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// debugCache is the GET /v1/debug/cache document.
type debugCache struct {
	Entries    int             `json:"entries"`
	Capacity   int             `json:"capacity"`
	Hits       uint64          `json:"hits"`
	Misses     uint64          `json:"misses"`
	PeerHits   uint64          `json:"peer_hits"`
	PeerMisses uint64          `json:"peer_misses"`
	OwnedKeys  int64           `json:"owned_keys"`
	Keys       []debugCacheKey `json:"keys"`
}

// debugCacheKey is one cached entry, most recently used first.
type debugCacheKey struct {
	Key string `json:"key"`
	// Owner is the ring owner of the key (omitted single-replica).
	Owner string `json:"owner,omitempty"`
}

// handleDebugCache serves GET /v1/debug/cache: the result cache's
// contents in LRU order plus both cache tiers' counters, so a cache-hit
// SLO burn can be pinned to a shard in one request.
func (s *Server) handleDebugCache(w http.ResponseWriter, _ *http.Request) {
	keys := s.cache.keys()
	doc := debugCache{
		Entries:    len(keys),
		Capacity:   s.opts.CacheEntries,
		Hits:       s.metrics.CacheHits.Load(),
		Misses:     s.metrics.CacheMisses.Load(),
		PeerHits:   s.metrics.PeerCacheHits.Load(),
		PeerMisses: s.metrics.PeerCacheMisses.Load(),
		OwnedKeys:  s.ownedCachedKeys(),
		Keys:       make([]debugCacheKey, 0, len(keys)),
	}
	for _, k := range keys {
		entry := debugCacheKey{Key: k}
		if s.cluster != nil {
			entry.Owner = s.cluster.owner(k)
		}
		doc.Keys = append(doc.Keys, entry)
	}
	writeJSON(w, http.StatusOK, doc)
}
