package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"offloadsim/internal/core"
	"offloadsim/internal/policy"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/workloads"
)

// traceOpts is the full-telemetry attachment the determinism tests use.
func traceOpts() telemetry.Options {
	return telemetry.Options{Events: true, IntervalInstrs: 25_000}
}

// detailedTraceCfg is a serial detailed configuration with the dynamic
// tuner enabled (scaled to test size), so captures include retunes.
func detailedTraceCfg() Config {
	cfg := DefaultConfig(workloads.Apache())
	cfg.UserCores = 2
	cfg.Threshold = 100
	cfg.DynamicN = true
	tc := core.DefaultTunerConfig()
	tc.SampleEpoch = 20_000
	tc.BaseRun = 60_000
	tc.MaxRun = 240_000
	cfg.Tuner = tc
	cfg.WarmupInstrs = 40_000
	cfg.MeasureInstrs = 150_000
	return cfg
}

// parallelTraceCfg is a quantum-parallel configuration at a fixed worker
// count.
func parallelTraceCfg(workers int) Config {
	cfg := DefaultConfig(workloads.Apache())
	cfg.UserCores = 4
	cfg.Threshold = 100
	cfg.WarmupInstrs = 40_000
	cfg.MeasureInstrs = 100_000
	cfg.Parallel = DefaultParallel()
	cfg.Parallel.Workers = workers
	return cfg
}

// tracedRun runs cfg with telemetry attached and returns the result's
// JSON, the capture, and its JSONL encoding.
func tracedRun(t *testing.T, cfg Config) ([]byte, *telemetry.Capture, []byte) {
	t.Helper()
	s := MustNew(cfg)
	trc, err := s.AttachTelemetry(traceOpts())
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	res := s.Run()
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	cap := trc.Capture()
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, cap); err != nil {
		t.Fatalf("export: %v", err)
	}
	return resJSON, cap, buf.Bytes()
}

// TestTelemetryDoesNotPerturbResults is the central no-perturbation
// gate: the same configuration must produce a byte-identical Result with
// tracing plus interval sampling enabled and with telemetry absent.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs are not short")
	}
	cfgs := map[string]Config{
		"detailed-dynN": detailedTraceCfg(),
		"parallel":      parallelTraceCfg(2),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			plain := MustNew(cfg).Run()
			plainJSON, err := json.Marshal(plain)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			tracedJSON, cap, _ := tracedRun(t, cfg)
			if !bytes.Equal(plainJSON, tracedJSON) {
				t.Errorf("telemetry perturbed the result:\nplain  %s\ntraced %s", plainJSON, tracedJSON)
			}
			if len(cap.Events) == 0 {
				t.Error("capture has no events")
			}
			if len(cap.Series) == 0 {
				t.Error("capture has no interval series")
			}
		})
	}
}

// TestBaselineTraceIgnoresOSCores: a Baseline run builds no OS core,
// so an OS-core block neither changes its canonical key nor its trace;
// the capture header must not claim OS cores the run never had.
func TestBaselineTraceIgnoresOSCores(t *testing.T) {
	plain := DefaultConfig(workloads.Apache())
	plain.Policy = policy.Baseline
	plain.WarmupInstrs = 20_000
	plain.MeasureInstrs = 60_000
	block := plain
	block.OSCores = OSCores{Enabled: true, K: 2}
	plainKey, err := CanonicalKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	if key, err := CanonicalKey(block); err != nil || key != plainKey {
		t.Fatalf("OS-core block changed a Baseline key: %q vs %q (%v)", key, plainKey, err)
	}
	_, plainCap, plainJSONL := tracedRun(t, plain)
	_, blockCap, blockJSONL := tracedRun(t, block)
	if blockCap.Meta != plainCap.Meta {
		t.Errorf("capture header with an OS-core block = %+v, want %+v", blockCap.Meta, plainCap.Meta)
	}
	if !bytes.Equal(blockJSONL, plainJSONL) {
		t.Error("an OS-core block changed a Baseline trace")
	}
}

// TestTraceDeterministicAcrossGOMAXPROCS pins the trace-byte contract
// against host parallelism.
func TestTraceDeterministicAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs are not short")
	}
	cfgs := map[string]Config{
		"detailed-dynN": detailedTraceCfg(),
		"parallel":      parallelTraceCfg(2),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			res1, _, trace1 := tracedRun(t, cfg)
			runtime.GOMAXPROCS(8)
			res8, _, trace8 := tracedRun(t, cfg)
			runtime.GOMAXPROCS(prev)
			if !bytes.Equal(res1, res8) {
				t.Errorf("results differ across GOMAXPROCS")
			}
			if !bytes.Equal(trace1, trace8) {
				t.Errorf("trace bytes differ across GOMAXPROCS (%d vs %d bytes)", len(trace1), len(trace8))
			}
		})
	}
}

// TestTraceDeterministicAcrossWorkers pins the trace-byte contract
// against the parallel engine's worker count, which — like the results
// themselves — must be invisible in the output.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs are not short")
	}
	res1, _, trace1 := tracedRun(t, parallelTraceCfg(1))
	res4, _, trace4 := tracedRun(t, parallelTraceCfg(4))
	if !bytes.Equal(res1, res4) {
		t.Errorf("results differ across Workers")
	}
	if !bytes.Equal(trace1, trace4) {
		t.Errorf("trace bytes differ across Workers (%d vs %d bytes)", len(trace1), len(trace4))
	}
}

// TestTraceCaptureContents checks the capture carries the event
// vocabulary the viewers rely on: entries, predictions, off-load round
// trips, outcomes and — with the dynamic tuner on — retunes.
func TestTraceCaptureContents(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs are not short")
	}
	_, cap, _ := tracedRun(t, detailedTraceCfg())
	counts := map[telemetry.Kind]int{}
	for _, ev := range cap.Events {
		counts[ev.Kind]++
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindOSEntry, telemetry.KindPredict, telemetry.KindOutcome,
		telemetry.KindOffloadDispatch, telemetry.KindOffloadQueue,
		telemetry.KindOffloadExecute, telemetry.KindCacheWarm,
		telemetry.KindOffloadReturn, telemetry.KindRetune,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events captured", k)
		}
	}
	if counts[telemetry.KindOSEntry] != counts[telemetry.KindPredict] ||
		counts[telemetry.KindOSEntry] != counts[telemetry.KindOutcome] {
		t.Errorf("entry/predict/outcome counts diverge: %d/%d/%d",
			counts[telemetry.KindOSEntry], counts[telemetry.KindPredict], counts[telemetry.KindOutcome])
	}
	if counts[telemetry.KindOffloadDispatch] != counts[telemetry.KindOffloadReturn] {
		t.Errorf("dispatch/return counts diverge: %d/%d",
			counts[telemetry.KindOffloadDispatch], counts[telemetry.KindOffloadReturn])
	}
	if !json.Valid(chromeExport(t, cap)) {
		t.Error("chrome export is not valid JSON")
	}
}

// chromeExport renders a capture as a Chrome trace-event document.
func chromeExport(t *testing.T, cap *telemetry.Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteChrome(&buf, cap); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	return buf.Bytes()
}

// clusterTraceCfg is a K=2 OS-core cluster with async dispatch on two
// user cores, so captures include the cluster's enqueue, execute and
// async-return events.
func clusterTraceCfg() Config {
	cfg := DefaultConfig(workloads.Apache())
	cfg.UserCores = 2
	cfg.Threshold = 100
	cfg.OSCores = DefaultOSCores(2)
	cfg.OSCores.Async = true
	cfg.WarmupInstrs = 40_000
	cfg.MeasureInstrs = 150_000
	return cfg
}

// TestTraceExportPinned pins every byte the trace exporters write for
// three small runs that together cover every event kind: a classic
// single-OS-core run with the dynamic tuner, a K=2 async cluster run and
// a 4-core parallel run. The digests are SHA-256 over the Chrome
// document, the JSONL export and, for the first run, the interval CSV.
// A change to any encoder, or to the order or values of the events it
// renders, fails here.
func TestTraceExportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced runs are not short")
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	runs := []struct {
		name               string
		cfg                Config
		chrome, jsonl, csv string
	}{
		{"classic-dynN", detailedTraceCfg(),
			"7733c9f2f7d10079ee9c457613a15e67584933834e8507429527c724deea4473",
			"e15cebf6b2e85669e6ddbfc867e1f53359ea8d59573b1effc30fd4267e06c79b",
			"d65d0f75204c4d33f23ba172ca522d33f0f721347b7fe8ea2a32c31efd8dc428"},
		{"cluster-k2-async", clusterTraceCfg(),
			"494c4c5286e1bc7d0208961f13ac8f01d9128750231c58eb61d7743f3cfe4180",
			"5cdc813cfd7e9654d44f7c6773031fc16e530d88d1b48bb6da1d5aefaf55bb4a",
			""},
		{"parallel-4", parallelTraceCfg(2),
			"d014bab7f002f138cfcaed707cec17dc465fe67c46d7f77c6bd094c71401b8a1",
			"b0d8db4cb9d733f9de89e578256a7e73c84c607ce7e78fea0720e8a6e0975e3d",
			""},
	}
	seen := map[telemetry.Kind]bool{}
	for _, r := range runs {
		_, cap, jsonl := tracedRun(t, r.cfg)
		for _, ev := range cap.Events {
			seen[ev.Kind] = true
		}
		if got := digest(chromeExport(t, cap)); got != r.chrome {
			t.Errorf("%s: chrome digest %s, want %s", r.name, got, r.chrome)
		}
		if got := digest(jsonl); got != r.jsonl {
			t.Errorf("%s: jsonl digest %s, want %s", r.name, got, r.jsonl)
		}
		if r.csv == "" {
			continue
		}
		var csv bytes.Buffer
		if err := telemetry.WriteSeriesCSV(&csv, cap.Series); err != nil {
			t.Fatalf("%s: csv: %v", r.name, err)
		}
		if got := digest(csv.Bytes()); got != r.csv {
			t.Errorf("%s: csv digest %s, want %s", r.name, got, r.csv)
		}
	}
	for k := telemetry.KindOSEntry; k <= telemetry.KindAsyncReturn; k++ {
		if !seen[k] {
			t.Errorf("no run captured a %v event; its export mapping is unpinned", k)
		}
	}
}

func TestAttachTelemetryRejectsSampled(t *testing.T) {
	cfg := DefaultConfig(workloads.Apache())
	cfg.Sampling.Enabled = true
	s := MustNew(cfg)
	if _, err := s.AttachTelemetry(traceOpts()); err == nil {
		t.Fatal("sampled mode must reject telemetry")
	}
}

// TestTraceZeroAllocsDisabled pins the detailed step loop at zero
// steady-state allocations both with telemetry absent (the nil-tracer
// fast path must stay free) and with an armed event tracer (rings are
// preallocated; emission must not escape to the heap).
func TestTraceZeroAllocsDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	if testing.Short() {
		t.Skip("fixture warmup is not short")
	}
	mk := func(attach bool) *Simulator {
		cfg := DefaultConfig(workloads.Apache())
		cfg.Threshold = 100
		cfg.WarmupInstrs = 0
		cfg.MeasureInstrs = 1 << 62 // never reached; stepped manually
		s := MustNew(cfg)
		if attach {
			trc, err := s.AttachTelemetry(telemetry.Options{Events: true})
			if err != nil {
				t.Fatalf("attach: %v", err)
			}
			trc.Arm()
		}
		for i := 0; i < 5_000; i++ {
			s.step(s.minClock())
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		attach bool
	}{{"disabled", false}, {"enabled", true}} {
		s := mk(tc.attach)
		if allocs := testing.AllocsPerRun(500, func() { s.step(s.minClock()) }); allocs != 0 {
			t.Errorf("%s: detailed step allocates %v objects/op in steady state, want 0", tc.name, allocs)
		}
	}
}
