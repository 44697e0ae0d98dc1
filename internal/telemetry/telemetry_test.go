package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func testMeta() Meta {
	return Meta{Workload: "apache", Policy: "HI", Threshold: 1000, UserCores: 2, OSCore: true, Seed: 1}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err == nil {
		t.Fatal("empty options must be invalid")
	}
	if err := (Options{Events: true}).Validate(); err != nil {
		t.Fatalf("events-only options: %v", err)
	}
	if err := (Options{IntervalInstrs: 1000}).Validate(); err != nil {
		t.Fatalf("series-only options: %v", err)
	}
}

func TestTracerDisarmedDropsEvents(t *testing.T) {
	tr := MustNew(Options{Events: true}, 2, testMeta())
	tr.Emit(0, Event{Time: 1, Kind: KindOSEntry, Sys: 3})
	tr.Arm()
	tr.Emit(0, Event{Time: 2, Kind: KindOSEntry, Sys: 3})
	c := tr.Capture()
	if len(c.Events) != 1 || c.Events[0].Time != 2 {
		t.Fatalf("want only the armed event, got %+v", c.Events)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Arm()
	tr.Emit(0, Event{Kind: KindOSEntry})
	tr.RecordInterval(IntervalPoint{})
	if tr.EventsEnabled() || tr.IntervalInstrs() != 0 {
		t.Fatal("nil tracer must report disabled")
	}
	if tr.Capture() != nil {
		t.Fatal("nil tracer capture must be nil")
	}
}

func TestCaptureMergeOrder(t *testing.T) {
	tr := MustNew(Options{Events: true}, 3, testMeta())
	tr.Arm()
	tr.Emit(2, Event{Time: 5, Kind: KindOSEntry, Sys: 1})
	tr.Emit(0, Event{Time: 9, Kind: KindOSEntry, Sys: 1})
	tr.Emit(0, Event{Time: 9, Kind: KindOSExit, Sys: 1})
	tr.Emit(1, Event{Time: 9, Kind: KindOSEntry, Sys: 1})
	tr.Emit(1, Event{Time: 2, Kind: KindOSEntry, Sys: 1})
	c := tr.Capture()
	var got [][3]uint64
	for _, ev := range c.Events {
		got = append(got, [3]uint64{ev.Time, uint64(ev.Core), uint64(ev.Seq)})
	}
	want := [][3]uint64{{2, 1, 1}, {5, 2, 0}, {9, 0, 0}, {9, 0, 1}, {9, 1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order mismatch:\n got %v\nwant %v", got, want)
	}
	if c.Dropped != 0 {
		t.Fatalf("unexpected drops: %d", c.Dropped)
	}
}

func TestRingOverflowKeepsTail(t *testing.T) {
	tr := MustNew(Options{Events: true}, 1, testMeta())
	tr.Arm()
	for i := 0; i < DefaultRingEvents+6; i++ {
		tr.Emit(0, Event{Time: uint64(i), Kind: KindOSEntry, Sys: 0})
	}
	c := tr.Capture()
	if c.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", c.Dropped)
	}
	if len(c.Events) != DefaultRingEvents {
		t.Fatalf("kept = %d, want %d", len(c.Events), DefaultRingEvents)
	}
	for i, ev := range c.Events {
		if want := uint64(6 + i); ev.Time != want || uint64(ev.Seq) != want {
			t.Fatalf("event %d = %+v, want time/seq %d", i, ev, want)
		}
	}
}

// SampleCapture exposes sampleCapture to the package's external tests,
// which read captures back through obs.ReadJSONL (obs imports telemetry,
// so only an external test can import obs).
var SampleCapture = sampleCapture

// sampleCapture builds a capture exercising every event kind.
func sampleCapture() *Capture {
	tr := MustNew(Options{Events: true}, 2, testMeta())
	tr.Arm()
	tr.Emit(0, Event{Time: 10, Kind: KindOSEntry, Sys: 4, Instrs: 900})
	tr.Emit(0, Event{Time: 10, Kind: KindPredict, Sys: 4, Instrs: 900, Pred: 1200, Offload: true, Global: false, Cycles: 1})
	tr.Emit(0, Event{Time: 11, Kind: KindOffloadDispatch, Sys: 4, Cycles: 100})
	tr.Emit(0, Event{Time: 111, Kind: KindOffloadQueue, Sys: 4, Cycles: 40, Value: 1})
	tr.Emit(0, Event{Time: 151, Kind: KindOffloadExecute, Sys: 4, Cycles: 1100})
	tr.Emit(0, Event{Time: 151, Kind: KindCacheWarm, Sys: 4, Value: 17})
	tr.Emit(0, Event{Time: 1451, Kind: KindOffloadReturn, Sys: 4, Cycles: 1340})
	tr.Emit(0, Event{Time: 1451, Kind: KindOutcome, Sys: 4, Instrs: 900, Pred: 1200, Offload: true, Value: -300})
	tr.Emit(1, Event{Time: 20, Kind: KindOSEntry, Sys: 2, Instrs: 50})
	tr.Emit(1, Event{Time: 70, Kind: KindOSExit, Sys: 2, Cycles: 60})
	tr.Emit(1, Event{Time: 90, Kind: KindRetune, Sys: -1, Value: 2500})
	tr.RecordInterval(IntervalPoint{Instrs: 1000, Cycles: 1500, Throughput: 0.66, LiveN: 1000})
	return tr.Capture()
}

func TestJSONLLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleCapture()); err != nil {
		t.Fatalf("export: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	// Meta header + 11 events.
	if len(lines) != 12 {
		t.Fatalf("got %d lines, want 12", len(lines))
	}
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %d is not valid JSON: %s", i, ln)
		}
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleCapture()); err != nil {
		t.Fatalf("export: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	var slices, counters, instants int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	// os_exit + offload_return + queue wait + offload_execute.
	if slices != 4 {
		t.Errorf("slices = %d, want 4", slices)
	}
	if counters != 1 {
		t.Errorf("counter events = %d, want 1 (retune)", counters)
	}
	// cache_warm + retune instant.
	if instants != 2 {
		t.Errorf("instants = %d, want 2", instants)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	series := []IntervalPoint{
		{Index: 0, EndInstrs: 50000, Instrs: 99000, Cycles: 140000, Throughput: 1.4142,
			UserL2HitRate: 0.9, UserL1DHitRate: 0.95, OSL2HitRate: 0.5,
			OSCoreUtilization: 0.25, QueueDepth: 0.01, MeanQueueDelay: 12.5,
			OSEntries: 120, Offloads: 30, LiveN: 1000},
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, series); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := "index,end_instrs,instrs,cycles,throughput,user_l2_hit_rate,user_l1d_hit_rate,os_l2_hit_rate,os_core_utilization,queue_depth,mean_queue_delay,os_entries,offloads,live_n\n" +
		"0,50000,99000,140000,1.4142,0.9,0.95,0.5,0.25,0.01,12.5,120,30,1000\n"
	if buf.String() != want {
		t.Fatalf("csv mismatch:\n got %q\nwant %q", buf.String(), want)
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		name := k.String()
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("kind %d name %q does not round-trip", k, name)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Fatal("bogus name resolved")
	}
}
