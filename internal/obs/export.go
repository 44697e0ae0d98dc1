package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"offloadsim/internal/coherence"
	"offloadsim/internal/telemetry"
)

// WriteJSONL renders spans one JSON object per line — the service-span
// interchange format served by GET /v1/debug/traces/{id}?format=jsonl
// and read back by ReadJSONL. Spans are written in the canonical
// (StartNS, SpanID) order.
func WriteJSONL(w io.Writer, spans []Span) error {
	spans = append([]Span(nil), spans...)
	SortSpans(spans)
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteChrome renders a (possibly fleet-stitched) span set as a Chrome
// trace-event document with the encoder the simulation capture uses
// (telemetry.ChromeWriter), but over wall time: each replica becomes a
// process row, each job a thread row, and each span an "X" slice whose
// args carry the span identity and attributes, sorted by key.
// Timestamps are microseconds relative to the earliest span, so fleet
// traces line up even though absolute clocks differ.
func WriteChrome(w io.Writer, spans []Span) error {
	spans = append([]Span(nil), spans...)
	SortSpans(spans)

	// Stable row assignment: processes are the sorted replica set,
	// threads are jobs in first-span order (tid 0 is the service row for
	// spans with no job: request routing, sweep coordination).
	pidOf := map[string]int{}
	var replicas []string
	for _, s := range spans {
		if _, ok := pidOf[s.Replica]; !ok {
			pidOf[s.Replica] = 0
			replicas = append(replicas, s.Replica)
		}
	}
	sort.Strings(replicas)
	for i, r := range replicas {
		pidOf[r] = i
	}
	type row struct{ replica, job string }
	tidOf := map[row]int{}
	var jobRows []row
	nextTid := map[string]int{}
	for _, s := range spans {
		k := row{s.Replica, s.JobID}
		if _, ok := tidOf[k]; !ok && s.JobID != "" {
			nextTid[s.Replica]++
			tidOf[k] = nextTid[s.Replica]
			jobRows = append(jobRows, k)
		}
	}

	cw := telemetry.NewChromeWriter(w, true,
		telemetry.ChromeArg{Key: "layer", Value: "service"},
		telemetry.ChromeArg{Key: "time_unit", Value: "wall"})
	meta := func(pid, tid int, kind, name string) {
		cw.Event(telemetry.ChromeEvent{Ph: "M", Pid: pid, Tid: tid, Name: kind,
			Args: []telemetry.ChromeArg{{Key: "name", Value: name}}})
	}
	for _, r := range replicas {
		label := r
		if r == "" {
			label = "local"
		}
		meta(pidOf[r], 0, "process_name", "offsimd "+label)
		meta(pidOf[r], 0, "thread_name", "service")
	}
	for _, k := range jobRows {
		meta(pidOf[k.replica], tidOf[k], "thread_name", k.job)
	}

	var minStart int64
	if len(spans) > 0 {
		minStart = spans[0].StartNS
	}
	for _, s := range spans {
		args := map[string]string{"span_id": s.SpanID, "status": s.Status}
		if s.Parent != "" {
			args["parent_id"] = s.Parent
		}
		if s.Error != "" {
			args["error"] = s.Error
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		keys := make([]string, 0, len(args))
		for k := range args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		list := make([]telemetry.ChromeArg, len(keys))
		for i, k := range keys {
			list[i] = telemetry.ChromeArg{Key: k, Value: args[k]}
		}
		// Sub-microsecond slices render as zero-width; clamp to 1 µs so
		// every stage stays visible on the timeline.
		dur := max(s.DurationNS(), 1000)
		cw.Event(telemetry.ChromeEvent{Ph: "X", Pid: pidOf[s.Replica], Tid: tidOf[row{s.Replica, s.JobID}],
			TS: s.StartNS - minStart, Dur: dur, Name: s.Name, Cat: "service", Args: list})
	}
	return cw.Close()
}

// jsonlRecord is the union wire shape one JSONL line decodes into: a
// simulation capture's meta header or one of its events
// (telemetry.WriteJSONL), or, when it has a "span_id", a service span.
type jsonlRecord struct {
	SpanID *string `json:"span_id"`

	Meta    *telemetry.Meta `json:"meta"`
	Dropped uint64          `json:"dropped"`

	T       uint64 `json:"t"`
	Core    int32  `json:"core"`
	Seq     uint32 `json:"seq"`
	Kind    string `json:"kind"`
	Sys     *int32 `json:"sys"`
	Instrs  int32  `json:"instrs"`
	Pred    int32  `json:"pred"`
	Offload bool   `json:"offload"`
	Global  bool   `json:"global"`
	Cycles  uint64 `json:"cycles"`
	Value   int64  `json:"value"`
}

// ReadJSONL decodes a JSONL trace of either kind: a simulation capture
// (telemetry.WriteJSONL, from offsim -trace-format jsonl or GET
// /v1/traces) or a service span set (WriteJSONL, from GET
// /v1/debug/traces). A line with a "span_id" field is a span; any other
// line belongs to a capture. Exactly one result is non-nil. A file that
// mixes the two kinds is rejected with a line of each, as is a capture
// header claiming more cores than a run can have.
func ReadJSONL(r io.Reader) (*telemetry.Capture, []Span, error) {
	var (
		capt                *telemetry.Capture
		spans               []Span
		spanLine, eventLine int // first line of each kind
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec jsonlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", line, err)
		}
		if rec.SpanID != nil && spanLine == 0 {
			spanLine = line
		} else if rec.SpanID == nil && eventLine == 0 {
			eventLine = line
		}
		if spanLine != 0 && eventLine != 0 {
			return nil, nil, fmt.Errorf("mixed export: line %d is a service span (it has \"span_id\") "+
				"but line %d is a simulation event; export and convert the two kinds separately",
				spanLine, eventLine)
		}
		if rec.SpanID != nil {
			var s Span
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&s); err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", line, err)
			}
			if s.TraceID == "" || s.SpanID == "" || s.Name == "" {
				return nil, nil, fmt.Errorf("line %d: span record missing trace_id/span_id/name", line)
			}
			spans = append(spans, s)
			continue
		}
		if capt == nil {
			capt = &telemetry.Capture{}
		}
		if m := rec.Meta; m != nil {
			osCores := m.OSCores
			if osCores == 0 && m.OSCore {
				osCores = 1
			}
			if m.UserCores < 0 || osCores < 0 || m.UserCores > coherence.MaxNodes ||
				osCores > coherence.MaxNodes-m.UserCores {
				return nil, nil, fmt.Errorf("line %d: header has %d user and %d OS cores; a run has at most %d cores in all",
					line, m.UserCores, osCores, coherence.MaxNodes)
			}
			capt.Meta, capt.Dropped = *m, rec.Dropped
			continue
		}
		kind, ok := telemetry.KindByName(rec.Kind)
		if !ok {
			return nil, nil, fmt.Errorf("line %d: unknown kind %q", line, rec.Kind)
		}
		sys := int32(-1)
		if rec.Sys != nil {
			sys = *rec.Sys
		}
		capt.Events = append(capt.Events, telemetry.Event{
			Time: rec.T, Core: rec.Core, Seq: rec.Seq, Kind: kind,
			Offload: rec.Offload, Global: rec.Global, Sys: sys,
			Instrs: rec.Instrs, Pred: rec.Pred, Cycles: rec.Cycles, Value: rec.Value,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if capt == nil && spans == nil {
		return nil, nil, fmt.Errorf("no JSONL records found")
	}
	return capt, spans, nil
}
