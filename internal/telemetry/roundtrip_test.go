package telemetry_test

import (
	"bytes"
	"reflect"
	"testing"

	"offloadsim/internal/obs"
	"offloadsim/internal/telemetry"
)

func TestJSONLRoundTrip(t *testing.T) {
	c := telemetry.SampleCapture()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, c); err != nil {
		t.Fatalf("export: %v", err)
	}
	got, spans, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got == nil || spans != nil {
		t.Fatalf("read a capture export as %d spans", len(spans))
	}
	if got.Meta != c.Meta || got.Dropped != c.Dropped {
		t.Fatalf("meta mismatch: %+v/%d vs %+v/%d", got.Meta, got.Dropped, c.Meta, c.Dropped)
	}
	if !reflect.DeepEqual(got.Events, c.Events) {
		t.Fatalf("events did not round-trip:\n got %+v\nwant %+v", got.Events, c.Events)
	}
}
