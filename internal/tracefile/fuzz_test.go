package tracefile

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"offloadsim/internal/trace"
)

// malformed lists one-record streams that Writer never writes, each
// after the magic: the fields are flags, sys, argClass, astate, instrs
// and userGap.
var malformed = []struct {
	name   string
	fields [][]byte
}{
	{"kind 0", [][]byte{{0}, {0}, {0}, {0}, {1}, {0}}},
	{"kind 3", [][]byte{{3}, {0}, {0}, {0}, {1}, {0}}},
	{"flag bit above 0x7", [][]byte{{0x9}, {0}, {0}, {0}, {1}, {0}}},
	{"overlong varint", [][]byte{{1}, {0}, {0}, {0}, {0x81, 0x00}, {0}}},
	{"run length of 2^63", [][]byte{{1}, {0}, {0}, {0}, binary.AppendUvarint(nil, 1<<63), {0}}},
	{"argClass past MaxInt", [][]byte{{2}, {0}, binary.AppendUvarint(nil, math.MaxInt+1), {0}, {1}, {0}}},
	{"userGap past MaxInt", [][]byte{{2}, {0}, {0}, {0}, {1}, binary.AppendUvarint(nil, math.MaxUint64)}},
}

func malformedStream(fields [][]byte) []byte {
	return append([]byte(magic), bytes.Join(fields, nil)...)
}

// TestReaderRejectsWhatWriterNeverWrites: each malformed record is an
// error, not a record, and a well-formed record next to it still reads.
func TestReaderRejectsWhatWriterNeverWrites(t *testing.T) {
	for _, tc := range malformed {
		if recs, err := NewReader(bytes.NewReader(malformedStream(tc.fields))).ReadAll(); err == nil {
			t.Errorf("%s: read as %+v", tc.name, recs)
		}
	}
	ok := malformedStream([][]byte{{1}, {0}, {0}, {0}, binary.AppendUvarint(nil, math.MaxInt), {0}})
	recs, err := NewReader(bytes.NewReader(ok)).ReadAll()
	if err != nil || len(recs) != 1 || recs[0].Instrs != math.MaxInt {
		t.Errorf("run length MaxInt: %+v, %v", recs, err)
	}
}

// FuzzReadTracefile drives the reader cmd/tracedump runs on recorded
// traces with arbitrary input. Nothing may panic; an accepted input
// holds only syscall and trap records with non-negative counts, and
// Writer re-encodes its records to the same bytes. The seeds are a
// short capture and each malformed record above.
func FuzzReadTracefile(f *testing.F) {
	var capt bytes.Buffer
	if _, err := Capture(apacheSource(), 30_000, &capt); err != nil {
		f.Fatal(err)
	}
	f.Add(capt.Bytes())
	for _, tc := range malformed {
		f.Add(malformedStream(tc.fields))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, rec := range recs {
			if rec.Kind != trace.SyscallSegment && rec.Kind != trace.TrapSegment {
				t.Fatalf("record %d has kind %d", i, rec.Kind)
			}
			if rec.ArgClass < 0 || rec.Instrs < 0 || rec.UserGap < 0 {
				t.Fatalf("record %d read a negative count: %+v", i, rec)
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted input re-encodes to other bytes:\nread  %x\nwrite %x", data, buf.Bytes())
		}
	})
}
