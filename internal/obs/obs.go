// Package obs is the fleet's request-scoped observability layer:
// distributed tracing, structured-log correlation, and Go runtime
// instrumentation for offsimd (docs/OBSERVABILITY.md).
//
// Where internal/telemetry observes one *simulation* from the inside
// (cycle-timestamped engine events), obs observes the *service* from
// the outside: a job's life across admission, queueing, ring routing,
// peer forwarding, work stealing, sweep fan-out and execution —
// potentially spanning several replicas. The two layers share one
// export path (export.go): telemetry.ChromeWriter encodes both kinds of
// Chrome document, so both open in Perfetto, and ReadJSONL decodes
// either kind of JSONL. They never mix records: a sim trace's clock is
// cycles, a service trace's clock is wall time.
//
// Identity is deterministic by construction. A trace ID is a pure
// function of the job's canonical config key and its admission ordinal
// (TraceID), and a span ID is a pure function of its trace, parent,
// name and sibling ordinal (deterministic sibling counters in the
// Tracer). Two identical request sequences therefore produce identical
// trace/span IDs and identical span trees — only durations differ —
// which makes traces diffable across runs and replicas.
//
// Propagation uses a W3C-traceparent-shaped header (TraceHeader) on all
// internal peer HTTP calls, so a stolen or forwarded job stitches into
// one trace no matter how many replicas touched it.
package obs

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
)

// TraceHeader is the HTTP header carrying trace context between
// replicas. The value is W3C traceparent shaped:
// "00-<32 hex trace id>-<16 hex span id>-01".
const TraceHeader = "Traceparent"

// SpanContext identifies a position in a trace: the trace itself and
// the span that new child spans should attach under. The zero value is
// invalid and propagates nothing.
type SpanContext struct {
	TraceID string // 32 hex chars
	SpanID  string // 16 hex chars; empty at the trace root
}

// Valid reports whether sc names a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" }

// RootContext returns the parent context for a trace's root span.
func RootContext(traceID string) SpanContext { return SpanContext{TraceID: traceID} }

// TraceID derives a deterministic 32-hex-char trace ID from a scope
// string (a canonical config key, or "sweep:<id>") and an admission
// ordinal. Identical request sequences get identical trace IDs.
func TraceID(scope string, admission uint64) string {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], admission)
	h := sha256.New()
	h.Write([]byte("offsimd.trace\x00"))
	h.Write([]byte(scope))
	h.Write([]byte{0})
	h.Write(n[:])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// spanID derives a deterministic 16-hex-char span ID from the span's
// coordinates in the trace tree: trace, parent span, name and sibling
// ordinal (how many same-named siblings preceded it under that parent).
func spanID(traceID, parentID, name string, ordinal int) string {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(ordinal))
	h := sha256.New()
	h.Write([]byte("offsimd.span\x00"))
	h.Write([]byte(traceID))
	h.Write([]byte{0})
	h.Write([]byte(parentID))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(n[:])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// zeroSpanID is the all-zero parent field of a root span's header.
const zeroSpanID = "0000000000000000"

// Traceparent renders sc as the TraceHeader value.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	span := sc.SpanID
	if span == "" {
		span = zeroSpanID
	}
	return "00-" + sc.TraceID + "-" + span + "-01"
}

// ParseTraceparent parses a TraceHeader value. The boolean is false for
// absent or malformed values — propagation is best-effort, so a bad
// header degrades to an untraced request, never an error.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(v, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	if !isHex(parts[1]) || !isHex(parts[2]) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if sc.SpanID == zeroSpanID {
		sc.SpanID = ""
	}
	return sc, true
}

// IsTraceID reports whether s looks like a trace ID (32 hex chars) —
// used by debug endpoints that accept job IDs and raw trace IDs alike.
func IsTraceID(s string) bool { return len(s) == 32 && isHex(s) }

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

type ctxKey struct{}

// ContextWith attaches sc to ctx so deeply nested call paths (sweep
// fan-out) can recover their trace position without signature changes.
func ContextWith(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext recovers the SpanContext attached by ContextWith, or the
// zero (invalid) context.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
