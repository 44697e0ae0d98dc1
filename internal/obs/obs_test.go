package obs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t := time.Unix(1000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestTraceIDDeterministic(t *testing.T) {
	a := TraceID("key-1", 7)
	b := TraceID("key-1", 7)
	if a != b {
		t.Fatalf("same inputs produced different trace IDs: %s vs %s", a, b)
	}
	if len(a) != 32 || !IsTraceID(a) {
		t.Fatalf("trace ID %q is not 32 hex chars", a)
	}
	if TraceID("key-1", 8) == a || TraceID("key-2", 7) == a {
		t.Fatalf("distinct inputs collided on trace ID %s", a)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: TraceID("k", 1), SpanID: spanID(TraceID("k", 1), "", "request", 0)}
	got, ok := ParseTraceparent(sc.Traceparent())
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, sc)
	}
	// A root context (no span yet) survives too, with the zero span ID.
	root := RootContext(TraceID("k", 2))
	got, ok = ParseTraceparent(root.Traceparent())
	if !ok || got != root {
		t.Fatalf("root round trip: got %+v ok=%v want %+v", got, ok, root)
	}
	for _, bad := range []string{
		"", "garbage", "00-zz-11-01", "01-" + sc.TraceID + "-" + sc.SpanID + "-01",
		"00-" + sc.TraceID[:31] + "-" + sc.SpanID + "-01",
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent accepted %q", bad)
		}
	}
	if (SpanContext{}).Traceparent() != "" {
		t.Fatalf("invalid context rendered a traceparent")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(RootContext("x"), "admission")
	if sp != nil {
		t.Fatalf("nil tracer returned a live span")
	}
	sp.SetAttr("k", "v")
	sp.SetError("boom")
	sp.SetJob("j-1")
	sp.End()
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span has valid context %+v", sc)
	}
	if sc := tr.RecordSpan(RootContext("x"), "n", "", time.Now(), time.Now(), StatusOK, "", nil); sc.Valid() {
		t.Fatalf("nil tracer recorded a span")
	}
	tr.BindJob("j-1", "x")
	if _, ok := tr.TraceIDFor("j-1"); ok {
		t.Fatalf("nil tracer resolved a job")
	}
	if got := tr.Spans("x"); got != nil {
		t.Fatalf("nil tracer returned spans")
	}
}

// TestSpanTreeDeterministic drives two independent tracers through the
// same span sequence and requires identical IDs and structure — the
// property the acceptance criteria pin for identical request inputs.
func TestSpanTreeDeterministic(t *testing.T) {
	build := func() []Span {
		tr := NewTracer("http://r1", 0, fixedClock())
		root := tr.StartSpan(RootContext(TraceID("key", 1)), "request")
		adm := tr.StartSpan(root.Context(), "admission")
		adm.SetJob("j-00000001")
		tr.RecordSpan(adm.Context(), "cache_lookup", "j-00000001",
			time.Unix(1, 0), time.Unix(2, 0), StatusOK, "", map[string]string{"outcome": "miss"})
		tr.RecordSpan(adm.Context(), "queue_wait", "j-00000001",
			time.Unix(2, 0), time.Unix(3, 0), StatusOK, "", nil)
		exec := tr.StartSpan(adm.Context(), "sim_execute")
		exec.End()
		adm.End()
		root.End()
		return tr.Spans(root.Context().TraceID)
	}
	a, b := build(), build()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("expected 5 spans, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].SpanID != b[i].SpanID || a[i].Parent != b[i].Parent || a[i].Name != b[i].Name {
			t.Fatalf("span %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Same name under the same parent gets distinct sibling ordinals.
	tr := NewTracer("", 0, fixedClock())
	p := RootContext(TraceID("key", 2))
	s1 := tr.StartSpan(p, "twin")
	s2 := tr.StartSpan(p, "twin")
	if s1.Context().SpanID == s2.Context().SpanID {
		t.Fatalf("sibling spans share an ID")
	}
	// Explicit ordinals are position-stable regardless of call order.
	o3 := tr.StartSpanOrdinal(p, "sweep_point", 3)
	o1 := tr.StartSpanOrdinal(p, "sweep_point", 1)
	if o3.Context().SpanID == o1.Context().SpanID {
		t.Fatalf("explicit ordinals collided")
	}
	if o1b := tr.StartSpanOrdinal(p, "sweep_point", 1); o1b.Context().SpanID != o1.Context().SpanID {
		t.Fatalf("same explicit ordinal produced different IDs")
	}
}

func TestTracerBindingAndStats(t *testing.T) {
	tr := NewTracer("", 0, fixedClock())
	root := tr.StartSpan(RootContext(TraceID("k", 1)), "admission")
	root.SetJob("j-00000001")
	root.End()
	tid, ok := tr.TraceIDFor("j-00000001")
	if !ok || tid != root.Context().TraceID {
		t.Fatalf("TraceIDFor = %q, %v; want %q", tid, ok, root.Context().TraceID)
	}
	if _, ok := tr.TraceIDFor("j-unknown"); ok {
		t.Fatalf("resolved unknown job")
	}
	traces, spans, recorded, dropped, evicted := tr.Stats()
	if traces != 1 || spans != 1 || recorded != 1 || dropped != 0 || evicted != 0 {
		t.Fatalf("stats = %d %d %d %d %d", traces, spans, recorded, dropped, evicted)
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer("", 2, fixedClock())
	var first SpanContext
	for i := uint64(0); i < 3; i++ {
		root := tr.StartSpan(RootContext(TraceID("k", i)), "admission")
		root.SetJob("j-" + string(rune('a'+i)))
		root.End()
		if i == 0 {
			first = root.Context()
		}
	}
	if got := tr.Spans(first.TraceID); len(got) != 0 {
		t.Fatalf("oldest trace survived eviction with %d spans", len(got))
	}
	if _, ok := tr.TraceIDFor("j-a"); ok {
		t.Fatalf("evicted trace's job binding survived")
	}
	traces, _, _, _, evicted := tr.Stats()
	if traces != 2 || evicted != 1 {
		t.Fatalf("traces=%d evicted=%d, want 2 and 1", traces, evicted)
	}
}

func TestJSONLRoundTripAndMixedDetection(t *testing.T) {
	tr := NewTracer("http://r1", 0, fixedClock())
	root := tr.StartSpan(RootContext(TraceID("k", 1)), "request")
	adm := tr.StartSpan(root.Context(), "admission")
	adm.SetJob("j-00000001")
	adm.SetAttr("outcome", "enqueued")
	adm.End()
	root.SetError("downstream failed")
	root.End()
	spans := tr.Spans(root.Context().TraceID)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	capt, got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if capt != nil {
		t.Fatalf("span export read back as a capture")
	}
	if len(got) != len(spans) {
		t.Fatalf("round trip lost spans: %d -> %d", len(spans), len(got))
	}
	for i := range got {
		if got[i].SpanID != spans[i].SpanID || got[i].Error != spans[i].Error {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, got[i], spans[i])
		}
	}

	// A sim-event line in a span file must fail naming a line of each
	// kind, whichever comes first.
	event := `{"t":5,"core":0,"seq":1,"kind":"os_entry"}` + "\n"
	for _, c := range []struct{ file, lines string }{
		{buf.String() + event, "line 1 is a service span (it has \"span_id\") but line 3 is a simulation event"},
		{event + buf.String(), "line 2 is a service span (it has \"span_id\") but line 1 is a simulation event"},
	} {
		if _, _, err := ReadJSONL(strings.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.lines) {
			t.Fatalf("mixed file error = %v, want %q", err, c.lines)
		}
	}
	capt, got, err = ReadJSONL(strings.NewReader(event))
	if err != nil || capt == nil || got != nil || len(capt.Events) != 1 {
		t.Fatalf("a lone event line read as capture %+v, spans %v, err %v", capt, got, err)
	}
}

// TestReadJSONLRejectsImpossibleCores pins the header bound: a capture
// header may claim no more cores than a run can have (coherence.MaxNodes
// user and OS cores together), since rendering it writes rows per core.
func TestReadJSONLRejectsImpossibleCores(t *testing.T) {
	header := func(cores string) string {
		return `{"meta":{"workload":"apache","policy":"HI","threshold":100,` + cores + `,"seed":1,"time_unit":"cycle"},"dropped":0}` + "\n"
	}
	for _, c := range []struct {
		cores string
		ok    bool
	}{
		{`"user_cores":2,"os_core":true`, true},
		{`"user_cores":62,"os_core":true,"os_cores":2`, true},
		{`"user_cores":63,"os_core":true`, true},
		{`"user_cores":64,"os_core":false`, true},
		{`"user_cores":2000000000,"os_core":true`, false},
		{`"user_cores":2,"os_core":true,"os_cores":2000000000`, false},
		{`"user_cores":64,"os_core":true`, false},
		{`"user_cores":60,"os_core":true,"os_cores":8`, false},
		{`"user_cores":-1,"os_core":true`, false},
		{`"user_cores":2,"os_core":true,"os_cores":-3`, false},
		{`"user_cores":4611686018427387904,"os_core":true,"os_cores":4611686018427387904`, false},
	} {
		_, _, err := ReadJSONL(strings.NewReader(header(c.cores)))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted=%v", c.cores, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "line 1: header has") {
			t.Errorf("%s: err %q does not name the header", c.cores, err)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr1 := NewTracer("http://r1", 0, fixedClock())
	tr2 := NewTracer("http://r2", 0, fixedClock())
	root := tr1.StartSpan(RootContext(TraceID("k", 1)), "request")
	push := tr1.StartSpan(root.Context(), "steal_push")
	remote := tr2.StartSpan(push.Context(), "peer_execute")
	remote.SetJob("j-00000009")
	remote.End()
	push.End()
	root.End()
	spans := append(tr1.Spans(root.Context().TraceID), tr2.Spans(root.Context().TraceID)...)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, procs int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "M":
			if ev["name"] == "process_name" {
				procs++
			}
		}
	}
	if slices != 3 {
		t.Fatalf("expected 3 X slices, got %d", slices)
	}
	if procs != 2 {
		t.Fatalf("expected 2 process rows (one per replica), got %d", procs)
	}
	if !strings.Contains(buf.String(), "offsimd http://r2") {
		t.Fatalf("replica process name missing:\n%s", buf.String())
	}
}

// pinnedSpans is a fixed-clock span set stitched from two replicas. Its
// attrs and error text carry a quote, '<', '&', a non-ASCII rune and a
// control character, every kind of byte a JSON string encoder has to
// escape or pass through. The clock ticks in fractional microseconds,
// and one span is shorter than a microsecond.
func pinnedSpans() []Span {
	clock := func() func() time.Time {
		t := time.Unix(1000, 0)
		return func() time.Time {
			t = t.Add(1_234_567 * time.Nanosecond)
			return t
		}
	}
	tr1 := NewTracer("http://r1", 0, clock())
	tr2 := NewTracer("http://r2", 0, clock())
	root := tr1.StartSpan(RootContext(TraceID("k", 1)), "request")
	adm := tr1.StartSpan(root.Context(), "admission")
	adm.SetJob("j-00000001")
	adm.SetAttr("outcome", "enqueued")
	adm.SetAttr("a<b", "")
	start := time.Unix(1000, 1_500_250)
	tr1.RecordSpan(adm.Context(), "cache_lookup", "j-00000001",
		start, start.Add(300*time.Nanosecond), StatusOK, "", map[string]string{"outcome": "miss"})
	adm.SetAttr("workload", `apache "<&>" µ\x`+"\x07")
	adm.End()
	push := tr1.StartSpan(root.Context(), "steal_push")
	remote := tr2.StartSpan(push.Context(), "peer_execute")
	remote.SetJob("j-00000001")
	remote.SetAttr("victim", "http://r1")
	remote.SetError("peer said \"no\" <b>&amp; é\tbye\x01")
	remote.End()
	push.End()
	root.End()
	return append(tr1.Spans(root.Context().TraceID), tr2.Spans(root.Context().TraceID)...)
}

// longSpans lasts seconds: its times reach a million microseconds,
// where a float64 prints with an exponent unless formatted as
// encoding/json formats it.
func longSpans() []Span {
	start := time.Unix(1000, 0)
	return []Span{
		{TraceID: "ab", SpanID: "a1", Name: "sweep", JobID: "s-00000001",
			StartNS: start.UnixNano(), EndNS: start.Add(2500*time.Millisecond + 123).UnixNano(), Status: StatusOK},
		{TraceID: "ab", SpanID: "b2", Parent: "a1", Name: "sweep_point", JobID: "s-00000001",
			StartNS: start.Add(1_234_567_891).UnixNano(), EndNS: start.Add(3 * time.Second).UnixNano(), Status: StatusOK},
	}
}

// TestSpanExportPinned pins every byte the span exporters write: the
// JSON array GET /v1/debug/traces serves, the span JSONL and the Chrome
// document, as SHA-256 digests over pinnedSpans, plus the Chrome
// document of longSpans.
func TestSpanExportPinned(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	spans := pinnedSpans()
	array, err := json.Marshal(spans)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var jsonl, chrome bytes.Buffer
	if err := WriteJSONL(&jsonl, spans); err != nil {
		t.Fatalf("jsonl: %v", err)
	}
	if err := WriteChrome(&chrome, spans); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"array", array, "4960327b7d75a98d51007938fe44b7ee626f83c23da59551e2f9691d954825e9"},
		{"jsonl", jsonl.Bytes(), "98af111643214c79dd66702c79f9532aa2fe8b02fd6f557d2c706b79bc8205ae"},
		{"chrome", chrome.Bytes(), "6040239d073c8cc69f966060dacfe135f4dc33a137fa49b8437d3ed63858d4a5"},
	} {
		if got := digest(c.b); got != c.want {
			t.Errorf("%s digest %s, want %s\n%s", c.name, got, c.want, c.b)
		}
	}
	chrome.Reset()
	if err := WriteChrome(&chrome, longSpans()); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	if got, want := digest(chrome.Bytes()), "08fc2f65ff7b9dc15594dfd13f58936bf06a68a674680c4eb844ea823705eee3"; got != want {
		t.Errorf("long-span chrome digest %s, want %s\n%s", got, want, chrome.Bytes())
	}
}

func TestReadRuntimeStats(t *testing.T) {
	st := ReadRuntimeStats()
	if st.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", st.Goroutines)
	}
	if st.HeapBytes <= 0 {
		t.Fatalf("heap bytes = %d, want > 0", st.HeapBytes)
	}
	if st.GCPauseSeconds < 0 {
		t.Fatalf("negative GC pause total %g", st.GCPauseSeconds)
	}
}

func TestContextPropagation(t *testing.T) {
	sc := SpanContext{TraceID: TraceID("k", 1), SpanID: "0011223344556677"}
	ctx := ContextWith(context.Background(), sc)
	if got := FromContext(ctx); got != sc {
		t.Fatalf("FromContext = %+v, want %+v", got, sc)
	}
	if got := FromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context produced %+v", got)
	}
}
