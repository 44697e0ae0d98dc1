package tracefile

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"offloadsim/internal/core"
	"offloadsim/internal/rng"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
	"offloadsim/internal/workloads"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: trace.SyscallSegment, Sys: syscalls.Read, ArgClass: 3, AState: 0xDEADBEEF, Instrs: 3300, UserGap: 2500},
		{Kind: trace.TrapSegment, Sys: syscalls.SpillTrap, AState: 42, Instrs: 18},
		{Kind: trace.SyscallSegment, Sys: syscalls.Fork, ArgClass: 1, AState: 7, Instrs: 27000, Interrupted: true, UserGap: 900},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range sampleRecords() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := NewReader(&buf).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty trace: %v, %d records", err, len(recs))
	}
}

func TestBadMagicRejected(t *testing.T) {
	r := NewReader(bytes.NewBufferString("not a trace at all"))
	if _, err := r.Read(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	// Too-short stream.
	r = NewReader(bytes.NewBufferString("hi"))
	if _, err := r.Read(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("short stream: got %v", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(data))
	_, err := r.Read()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record read as %v", err)
	}
}

func TestInvalidSyscallRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{Kind: trace.SyscallSegment, Sys: syscalls.ID(9999), Instrs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).Read(); err == nil {
		t.Fatal("invalid syscall id accepted")
	}
}

// apacheSource is the apache workload generator the captures record.
func apacheSource() trace.Source {
	space := &trace.AddressSpace{}
	src := rng.New(71)
	kernel := trace.NewKernelLayout(space, src.Fork())
	return trace.MustNewGenerator(workloads.Apache(), 0, kernel, space, src.Fork())
}

func captureApache(t *testing.T, instrs uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	n, err := Capture(apacheSource(), instrs, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("captured no records")
	}
	return &buf
}

func TestCaptureAndSummarize(t *testing.T) {
	buf := captureApache(t, 500_000)
	s, err := Summarize(NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries == 0 || s.Syscalls == 0 || s.Traps == 0 {
		t.Fatalf("summary missing activity: %+v", s)
	}
	// Apache's privileged share must survive the round trip.
	if pf := s.PrivFraction(); pf < 0.35 || pf > 0.65 {
		t.Fatalf("trace privileged share %v outside apache's band", pf)
	}
	if s.PerSyscall["read"] == 0 {
		t.Fatal("no read syscalls in an apache trace")
	}
	if s.RunLengths.Total() != s.Entries {
		t.Fatal("histogram lost samples")
	}
}

func TestReplayAgainstPredictor(t *testing.T) {
	buf := captureApache(t, 2_000_000)
	// The reports are pinned field by field, floats bit for bit, so a
	// change to how predictions are scored shows as a changed number.
	cases := []struct {
		name string
		pred core.Predictor
		want ReplayReport
	}{
		{"cam-200", core.NewCAMPredictor(core.DefaultCAMEntries), ReplayReport{
			Entries: 3833, Syscalls: 384, Traps: 3449,
			Exact: 0.6223958333333334, Within5: 0.13541666666666666,
			BinaryAccuracy: 0.8619791666666666, OffloadRate: 0.05530915731802766,
		}},
		{"dm-1500", core.NewDirectMappedPredictor(core.DefaultDirectMappedEntries), ReplayReport{
			Entries: 3833, Syscalls: 384, Traps: 3449,
			Exact: 0.5963541666666666, Within5: 0.11197916666666667,
			BinaryAccuracy: 0.8359375, OffloadRate: 0.055048265066527526,
		}},
	}
	for _, c := range cases {
		rep, err := Replay(NewReader(bytes.NewReader(buf.Bytes())), c.pred, 500)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries != rep.Syscalls+rep.Traps {
			t.Fatalf("%s: entry split inconsistent", c.name)
		}
		if rep.BinaryAccuracy < 0.80 {
			t.Fatalf("%s: replay binary accuracy %v too low", c.name, rep.BinaryAccuracy)
		}
		if rep.OffloadRate <= 0 || rep.OffloadRate >= 1 {
			t.Fatalf("%s: offload rate %v implausible", c.name, rep.OffloadRate)
		}
		if rep.Exact+rep.Within5 < 0.5 {
			t.Fatalf("%s: replay run-length accuracy %v too low", c.name, rep.Exact+rep.Within5)
		}
		w := c.want
		if rep.Entries != w.Entries || rep.Syscalls != w.Syscalls || rep.Traps != w.Traps ||
			!sameFloat(rep.Exact, w.Exact) || !sameFloat(rep.Within5, w.Within5) ||
			!sameFloat(rep.BinaryAccuracy, w.BinaryAccuracy) || !sameFloat(rep.OffloadRate, w.OffloadRate) {
			t.Errorf("%s: report\n got %+v\nwant %+v", c.name, rep, w)
		}
	}
}

// sameFloat compares two floats bit for bit.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestReplayEmptyTraceFails(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(NewReader(&buf), core.NewCAMPredictor(8), 100); err == nil {
		t.Fatal("empty trace replayed successfully")
	}
}

// Property: any record round-trips bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, sysRaw uint8, class uint8, astate uint64, instrs uint16, gap uint16, intr bool) bool {
		rec := Record{
			Kind:        trace.SegmentKind(1 + int(kindRaw)%2), // syscall or trap
			Sys:         syscalls.ID(int(sysRaw) % syscalls.NumIDs),
			ArgClass:    int(class),
			AState:      astate,
			Instrs:      int(instrs),
			UserGap:     int(gap),
			Interrupted: intr,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(rec) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
