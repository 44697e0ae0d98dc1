package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateFlags(t *testing.T) {
	type args struct {
		capture, summary, replay, convert bool
		file, out                         string
		n, entries                        int
		instrs                            uint64
	}
	ok := args{capture: true, file: "x.trc", n: 500, instrs: 1000}
	cases := []struct {
		name    string
		mutate  func(*args)
		wantErr bool
	}{
		{"capture ok", func(a *args) {}, false},
		{"summary ok", func(a *args) { a.capture = false; a.summary = true }, false},
		{"replay ok", func(a *args) { a.capture = false; a.replay = true }, false},
		{"convert ok", func(a *args) { a.capture = false; a.convert = true; a.out = "y.json" }, false},
		{"no mode", func(a *args) { a.capture = false }, true},
		{"two modes", func(a *args) { a.summary = true }, true},
		{"three modes", func(a *args) { a.summary = true; a.replay = true }, true},
		{"capture+convert", func(a *args) { a.convert = true; a.out = "y.json" }, true},
		{"no file", func(a *args) { a.file = "" }, true},
		{"convert without out", func(a *args) { a.capture = false; a.convert = true }, true},
		{"out without convert", func(a *args) { a.out = "y.json" }, true},
		{"negative n", func(a *args) { a.n = -1 }, true},
		{"negative entries", func(a *args) { a.entries = -1500 }, true},
		{"zero instrs", func(a *args) { a.instrs = 0 }, true},
		{"convert onto input", func(a *args) { a.capture = false; a.convert = true; a.out = a.file }, true},
		{"convert distinct out", func(a *args) { a.capture = false; a.convert = true; a.out = "x.trace.json" }, false},
	}
	for _, c := range cases {
		a := ok
		c.mutate(&a)
		err := validateFlags(a.capture, a.summary, a.replay, a.convert, a.file, a.out, a.n, a.entries, a.instrs)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err=%v, wantErr=%v", c.name, err, c.wantErr)
		}
	}
}

// writeFile writes data to name under dir and returns its path.
func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClassifyJSONL converts files of each record kind, and files that
// mix them, through the one reader -convert uses.
func TestClassifyJSONL(t *testing.T) {
	event := `{"t":5,"core":0,"seq":1,"kind":"os_entry"}`
	span := `{"trace_id":"ab","span_id":"cd","name":"request","start_unix_ns":1,"end_unix_ns":2,"status":"ok"}`
	cases := []struct {
		name string
		data string
		want string // substring of the summary, or of the error when err
		err  bool
	}{
		{"events only", event + "\n" + event + "\n", "converted 2 events", false},
		{"spans only", span + "\n" + span + "\n", "converted 2 service spans", false},
		{"blank lines tolerated", "\n" + span + "\n\n", "converted 1 service spans", false},
		{"empty file", "\n\n", "no JSONL records", true},
		{"mixed span then event", span + "\n" + event + "\n", "line 2 is a simulation event", true},
		{"mixed event then span", event + "\n" + span + "\n", "line 2 is a service span", true},
	}
	dir := t.TempDir()
	for _, c := range cases {
		in := writeFile(t, dir, "in.jsonl", c.data)
		msg, err := convert(in, filepath.Join(dir, "out.trace.json"))
		if c.err {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err=%v, want substring %q", c.name, err, c.want)
			}
			continue
		}
		if err != nil || !strings.Contains(msg, c.want) {
			t.Errorf("%s: got %q err=%v, want %q", c.name, msg, err, c.want)
		}
	}
}

// TestConvertKeepsOutOnRejectedInput: a rejected input must leave an
// existing -out file as it was, not truncated or half written. The
// header claims one core too many rather than billions, so a broken
// bound could not make this test write without end.
func TestConvertKeepsOutOnRejectedInput(t *testing.T) {
	dir := t.TempDir()
	out := writeFile(t, dir, "out.trace.json", "keep me")
	for _, bad := range []string{
		`{"t":5,"core":0,"seq":1,"kind":"bogus"}` + "\n",
		`{"meta":{"workload":"apache","user_cores":65},"dropped":0}` + "\n",
		"not json\n",
	} {
		in := writeFile(t, dir, "in.jsonl", bad)
		if _, err := convert(in, out); err == nil {
			t.Fatalf("%q: converted, want an error", bad)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != "keep me" {
			t.Fatalf("%q: -out now holds %q (err %v), want it untouched", bad, got, err)
		}
	}
}

// TestConvertEscapesControlCharacters: a header string with a control
// character must still convert to valid JSON, escaped as encoding/json
// escapes it.
func TestConvertEscapesControlCharacters(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.jsonl",
		`{"meta":{"workload":"apache\u0007","policy":"<HI>","user_cores":2,"os_core":true},"dropped":0}`+"\n")
	out := filepath.Join(dir, "out.trace.json")
	if _, err := convert(in, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("converted trace is not valid JSON: %v\n%s", err, data)
	}
	if doc.OtherData["workload"] != "apache\a" || doc.OtherData["policy"] != "<HI>" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	if !strings.Contains(string(data), `"workload":"apache\u0007","policy":"\u003cHI\u003e"`) {
		t.Fatalf("strings not escaped as encoding/json escapes them:\n%s", data)
	}
}
