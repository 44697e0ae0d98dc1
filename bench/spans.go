package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the benchmark timed around its own call into a
// layer. Spans of one job, request or sweep share a trace ID.
type span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Parent  string `json:"parent_id,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced path: begin returns nil and every method on nil does nothing.
type recorder struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// activeSpan is a span that has started; end stores it.
type activeSpan struct {
	r *recorder
	s span
}

// begin opens a span now under parent (nil for a trace's root).
func (r *recorder) begin(traceID string, parent *activeSpan, name string) *activeSpan {
	if r == nil {
		return nil
	}
	a := &activeSpan{r: r, s: span{
		TraceID: traceID,
		SpanID:  fmt.Sprintf("%016x", r.ids.Add(1)),
		Name:    name,
		StartNS: time.Now().UnixNano(),
	}}
	if parent != nil {
		a.s.Parent = parent.s.SpanID
	}
	return a
}

func (a *activeSpan) traceID() string {
	if a == nil {
		return ""
	}
	return a.s.TraceID
}

func (a *activeSpan) end() {
	if a == nil {
		return
	}
	a.s.EndNS = time.Now().UnixNano()
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// durations returns the milliseconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one JSON record per line to path.
func writeJSONL[T any](path string, recs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
