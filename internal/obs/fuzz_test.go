package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"offloadsim/internal/coherence"
	"offloadsim/internal/telemetry"
)

// writeJSONL re-encodes what ReadJSONL returned, in its own kind.
func writeJSONL(t *testing.T, capt *telemetry.Capture, spans []Span) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if capt != nil {
		err = telemetry.WriteJSONL(&buf, capt)
	} else {
		err = WriteJSONL(&buf, spans)
	}
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadJSONL drives the one trace decoder with arbitrary input. It
// must never panic. For an accepted input, writing what was read is
// idempotent (write∘read twice gives the bytes of once), a capture
// header stays within coherence.MaxNodes cores, every re-encoded JSONL
// line and the Chrome rendering are valid JSON, and the re-encoding
// with a record of the other kind appended is rejected as a mixed
// file. The seed corpus is under testdata/fuzz/FuzzReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	const (
		eventLine = `{"t":5,"core":0,"seq":1,"kind":"os_entry","sys":3,"instrs":40}` + "\n"
		spanLine  = `{"trace_id":"ab","span_id":"cd","name":"request","start_unix_ns":1,"end_unix_ns":2,"status":"ok"}` + "\n"
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		capt, spans, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if (capt == nil) == (spans == nil) {
			t.Fatalf("accepted input gave capture %v and %d spans; want exactly one kind", capt != nil, len(spans))
		}
		once := writeJSONL(t, capt, spans)
		capt2, spans2, err := ReadJSONL(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded input rejected: %v\n%s", err, once)
		}
		if twice := writeJSONL(t, capt2, spans2); !bytes.Equal(once, twice) {
			t.Fatalf("write∘read is not idempotent:\nonce  %s\ntwice %s", once, twice)
		}
		for i, ln := range bytes.Split(bytes.TrimSuffix(once, []byte("\n")), []byte("\n")) {
			if !json.Valid(ln) {
				t.Fatalf("re-encoded line %d is not valid JSON: %s", i+1, ln)
			}
		}
		var chrome bytes.Buffer
		other := eventLine
		if capt != nil {
			// Checked before rendering, which writes rows per core: a
			// broken bound must fail here, not exhaust memory.
			if m := capt.Meta; m.UserCores > coherence.MaxNodes || m.OSCores > coherence.MaxNodes-m.UserCores {
				t.Fatalf("accepted a header with %d user and %d OS cores", m.UserCores, m.OSCores)
			}
			other = spanLine
			err = telemetry.WriteChrome(&chrome, capt)
		} else {
			err = WriteChrome(&chrome, spans)
		}
		if err != nil || !json.Valid(chrome.Bytes()) {
			t.Fatalf("chrome rendering (err %v) is not valid JSON:\n%s", err, chrome.Bytes())
		}
		mixed := append(once, other...)
		if _, _, err := ReadJSONL(bytes.NewReader(mixed)); err == nil || !strings.Contains(err.Error(), "mixed export") {
			t.Fatalf("mixed file accepted (err %v):\n%s", err, mixed)
		}
	})
}
