// Command tracedump captures, inspects and replays OS-entry decision
// traces:
//
//	tracedump -capture -workload apache -instrs 5000000 -file apache.trc
//	tracedump -summary -file apache.trc
//	tracedump -replay  -file apache.trc -n 500
//	tracedump -replay  -file apache.trc -n 500 -dm -entries 1500
//	tracedump -convert -file run.jsonl -out run.trace.json
//
// Captured traces decouple predictor studies from the timing simulator:
// the same stream can be replayed through either predictor organization
// at any threshold, and the decision accuracy compared offline.
// -convert turns a JSONL export into a Perfetto-loadable Chrome trace
// and accepts both record kinds the project emits: simulation-event
// traces (offsim -trace-format jsonl, offsimd /v1/traces) and service-
// span traces (offsimd /v1/debug/traces/{id}?format=jsonl). One reader
// (obs.ReadJSONL) decodes either; a file mixing the two is rejected
// with a line of each.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"offloadsim"
	"offloadsim/internal/core"
	"offloadsim/internal/obs"
	"offloadsim/internal/rng"
	"offloadsim/internal/trace"
	"offloadsim/internal/tracefile"
	"offloadsim/internal/workloads"
)

func main() {
	var (
		capture  = flag.Bool("capture", false, "capture a new trace from a workload")
		summary  = flag.Bool("summary", false, "summarize a trace's composition")
		replay   = flag.Bool("replay", false, "replay a trace through a run-length predictor")
		convert  = flag.Bool("convert", false, "convert a telemetry JSONL export to a Chrome trace")
		file     = flag.String("file", "", "trace file path")
		out      = flag.String("out", "", "output path for -convert")
		workload = flag.String("workload", "apache", "workload to capture: "+strings.Join(offloadsim.WorkloadNames(), ", "))
		instrs   = flag.Uint64("instrs", 5_000_000, "instructions to capture")
		seed     = flag.Uint64("seed", 1, "capture seed")
		n        = flag.Int("n", 500, "replay off-load threshold")
		dm       = flag.Bool("dm", false, "replay with the direct-mapped organization")
		entries  = flag.Int("entries", 0, "predictor entries (0 = paper default)")
	)
	flag.Parse()

	// Validate the whole invocation up front: a bad flag combination
	// should fail fast with usage, never after minutes of capture work.
	if err := validateFlags(*capture, *summary, *replay, *convert, *file, *out, *n, *entries, *instrs); err != nil {
		fail(err.Error())
	}

	switch {
	case *capture:
		doCapture(*workload, *instrs, *seed, *file)
	case *summary:
		doSummary(*file)
	case *replay:
		doReplay(*file, *n, *dm, *entries)
	case *convert:
		doConvert(*file, *out)
	}
}

// validateFlags checks the mode selection and every numeric flag before
// any work starts. Exactly one mode flag must be set.
func validateFlags(capture, summary, replay, convert bool, file, out string, n, entries int, instrs uint64) error {
	modes := 0
	for _, on := range []bool{capture, summary, replay, convert} {
		if on {
			modes++
		}
	}
	if modes == 0 {
		return fmt.Errorf("one of -capture, -summary, -replay, -convert is required")
	}
	if modes > 1 {
		return fmt.Errorf("-capture, -summary, -replay and -convert are mutually exclusive")
	}
	if file == "" {
		return fmt.Errorf("a -file is required")
	}
	if convert && out == "" {
		return fmt.Errorf("-convert requires -out")
	}
	if convert && out == file {
		return fmt.Errorf("-out %q would overwrite the -convert input; pick a different path", out)
	}
	if !convert && out != "" {
		return fmt.Errorf("-out only applies to -convert")
	}
	if n < 0 {
		return fmt.Errorf("-n must be >= 0 (got %d)", n)
	}
	if entries < 0 {
		return fmt.Errorf("-entries must be >= 0 (got %d)", entries)
	}
	if instrs == 0 {
		return fmt.Errorf("-instrs must be positive")
	}
	return nil
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "tracedump: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

func doCapture(workload string, instrs, seed uint64, path string) {
	prof, ok := workloads.ByName(workload)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q", workload))
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()

	space := &trace.AddressSpace{}
	src := rng.New(seed)
	kernel := trace.NewKernelLayout(space, src.Fork())
	gen, err := trace.NewGenerator(prof, 0, kernel, space, src.Fork())
	if err != nil {
		fail(err.Error())
	}
	count, err := tracefile.Capture(gen, instrs, f)
	if err != nil {
		fail(err.Error())
	}
	info, _ := f.Stat()
	fmt.Printf("captured %d OS entries from %d %s instructions into %s", count, instrs, workload, path)
	if info != nil {
		fmt.Printf(" (%d bytes, %.1f B/entry)", info.Size(), float64(info.Size())/float64(count))
	}
	fmt.Println()
}

func doSummary(path string) {
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()
	s, err := tracefile.Summarize(tracefile.NewReader(f))
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("entries            %d (%d syscalls, %d traps)\n", s.Entries, s.Syscalls, s.Traps)
	fmt.Printf("instructions       %d OS + %d user (%.1f%% privileged)\n",
		s.OSInstrs, s.UserInstrs, 100*s.PrivFraction())
	fmt.Printf("median run length  %.0f instructions\n", s.RunLengths.Quantile(0.5))
	fmt.Printf("p99 run length     %.0f instructions\n", s.RunLengths.Quantile(0.99))

	type kv struct {
		name string
		n    uint64
	}
	var mix []kv
	for name, cnt := range s.PerSyscall {
		mix = append(mix, kv{name, cnt})
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].n > mix[j].n })
	fmt.Println("top entry points:")
	for i, e := range mix {
		if i >= 10 {
			break
		}
		fmt.Printf("  %-14s %8d (%.1f%%)\n", e.name, e.n, 100*float64(e.n)/float64(s.Entries))
	}

	var cats []kv
	for name, instrs := range s.PerCategory {
		cats = append(cats, kv{name, instrs})
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].n > cats[j].n })
	fmt.Println("OS time by subsystem:")
	for _, e := range cats {
		fmt.Printf("  %-14s %8d instrs (%.1f%%)\n", e.name, e.n, 100*float64(e.n)/float64(s.OSInstrs))
	}
}

func doConvert(path, out string) {
	msg, err := convert(path, out)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(msg)
}

// convert renders the JSONL export at path as a Chrome trace at out and
// returns the summary line. The input is decoded in full before out is
// created, so a rejected input leaves out as it was.
func convert(path, out string) (string, error) {
	in, err := os.Open(path)
	if err != nil {
		return "", err
	}
	capt, spans, err := obs.ReadJSONL(in)
	in.Close()
	if err != nil {
		return "", fmt.Errorf("reading %s: %v", path, err)
	}
	f, err := os.Create(out)
	if err != nil {
		return "", err
	}
	var msg string
	if capt != nil {
		err = offloadsim.WriteTraceChrome(f, capt)
		msg = fmt.Sprintf("converted %d events (%s, %d cores) into %s",
			len(capt.Events), capt.Meta.Workload, capt.Meta.UserCores, out)
	} else {
		err = obs.WriteChrome(f, spans)
		msg = fmt.Sprintf("converted %d service spans into %s", len(spans), out)
	}
	if err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return msg + " — load it in Perfetto or chrome://tracing", nil
}

func doReplay(path string, n int, dm bool, entries int) {
	f, err := os.Open(path)
	if err != nil {
		fail(err.Error())
	}
	defer f.Close()

	var pred core.Predictor
	var label string
	if dm {
		if entries == 0 {
			entries = core.DefaultDirectMappedEntries
		}
		pred = core.NewDirectMappedPredictor(entries)
		label = fmt.Sprintf("direct-mapped, %d entries", entries)
	} else {
		if entries == 0 {
			entries = core.DefaultCAMEntries
		}
		pred = core.NewCAMPredictor(entries)
		label = fmt.Sprintf("CAM, %d entries", entries)
	}
	rep, err := tracefile.Replay(tracefile.NewReader(f), pred, n)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("predictor            %s, threshold N=%d\n", label, n)
	fmt.Printf("entries replayed     %d (%d syscalls, %d traps)\n", rep.Entries, rep.Syscalls, rep.Traps)
	fmt.Printf("run-length accuracy  %.1f%% exact + %.1f%% within ±5%% (syscalls)\n",
		100*rep.Exact, 100*rep.Within5)
	fmt.Printf("binary accuracy      %.1f%% at N=%d\n", 100*rep.BinaryAccuracy, n)
	fmt.Printf("off-load rate        %.1f%% of entries\n", 100*rep.OffloadRate)
}
