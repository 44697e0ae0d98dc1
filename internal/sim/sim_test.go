package sim

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"offloadsim/internal/core"
	"offloadsim/internal/migration"
	"offloadsim/internal/policy"
	"offloadsim/internal/workloads"
)

// quickCfg returns a configuration small enough for unit tests.
func quickCfg(prof *workloads.Profile, kind policy.Kind) Config {
	cfg := DefaultConfig(prof)
	cfg.Policy = kind
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 150_000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := quickCfg(workloads.Derby(), policy.Baseline)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Workload = nil
	if bad.Validate() == nil {
		t.Fatal("nil workload accepted")
	}
	bad = good
	bad.UserCores = 0
	if bad.Validate() == nil {
		t.Fatal("zero cores accepted")
	}
	bad = good
	bad.MeasureInstrs = 0
	if bad.Validate() == nil {
		t.Fatal("zero ROI accepted")
	}
	bad = good
	bad.Threshold = -1
	if bad.Validate() == nil {
		t.Fatal("negative threshold accepted")
	}
	bad = good
	bad.DynamicN = true // zero tuner config must be rejected
	if bad.Validate() == nil {
		t.Fatal("dynamic N without tuner config accepted")
	}
}

func TestBaselineRunCompletes(t *testing.T) {
	r := MustNew(quickCfg(workloads.Derby(), policy.Baseline)).Run()
	if r.Instrs < 150_000 {
		t.Fatalf("retired %d instrs, want >= ROI", r.Instrs)
	}
	if r.Throughput <= 0 || r.Throughput > 1 {
		t.Fatalf("throughput %v outside (0,1]", r.Throughput)
	}
	if r.Offloads != 0 {
		t.Fatal("baseline off-loaded")
	}
	if r.OSCoreUtilization != 0 {
		t.Fatal("baseline has no OS core")
	}
	if r.Policy != "baseline" || r.Workload != "derby" {
		t.Fatalf("labels wrong: %+v", r)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	a := MustNew(cfg).Run()
	b := MustNew(cfg).Run()
	if a.Throughput != b.Throughput || a.Cycles != b.Cycles || a.Offloads != b.Offloads {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

// Every job of a process draws from the same immutable Zipf tables
// (rng.NewZipf memoizes them by size and exponent), so jobs running at
// once share them. Several goroutines build and run apache, specjbb and
// derby simulators concurrently; each Result must encode to the bytes a
// sequential run of the same config produces. Under -race this also
// checks that nothing writes a shared table after construction.
func TestConcurrentJobsShareTables(t *testing.T) {
	profs := []*workloads.Profile{workloads.Apache(), workloads.SPECjbb(), workloads.Derby()}
	encode := func(r Result) ([]byte, error) { return json.Marshal(r) }
	const copies = 3
	got := make([][]byte, copies*len(profs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := New(quickCfg(profs[i%len(profs)], policy.HardwarePredictor))
			if err != nil {
				t.Error(err)
				return
			}
			if got[i], err = encode(s.Run()); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, p := range profs {
		want, err := encode(MustNew(quickCfg(p, policy.HardwarePredictor)).Run())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < copies; c++ {
			if !bytes.Equal(got[c*len(profs)+i], want) {
				t.Fatalf("%s: concurrent run %d differs from the sequential run", p.Name, c)
			}
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	a := MustNew(cfg).Run()
	cfg.Seed = 999
	b := MustNew(cfg).Run()
	if a.Cycles == b.Cycles {
		t.Fatal("different seeds produced identical cycle counts")
	}
}

func TestHardwarePolicyOffloads(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	cfg.Threshold = 100
	r := MustNew(cfg).Run()
	if r.Offloads == 0 {
		t.Fatal("HI at N=100 never off-loaded on apache")
	}
	if r.OSCoreUtilization <= 0 {
		t.Fatal("OS core never utilized")
	}
	if r.OffloadRate <= 0 || r.OffloadRate > 1 {
		t.Fatalf("offload rate %v", r.OffloadRate)
	}
	// At this tiny scale only the all-entry accuracy (trap-dominated,
	// quickly trained) is statistically meaningful.
	if r.AllEntryExact < 0.5 {
		t.Fatalf("all-entry predictor accuracy %v too low", r.AllEntryExact)
	}
}

func TestThresholdMonotonicOffloadRate(t *testing.T) {
	rates := []float64{}
	for _, n := range []int{0, 1000, 100000} {
		cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
		cfg.Threshold = n
		rates = append(rates, MustNew(cfg).Run().OffloadRate)
	}
	if !(rates[0] > rates[1] && rates[1] > rates[2]) {
		t.Fatalf("offload rate not decreasing in N: %v", rates)
	}
	if rates[0] < 0.99 {
		t.Fatalf("N=0 should off-load everything, got %v", rates[0])
	}
}

func TestInstrumentOnlySuppressesMigration(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.DynamicInstrumentation)
	cfg.Threshold = 0
	cfg.InstrumentOnly = true
	r := MustNew(cfg).Run()
	if r.OSCoreUtilization != 0 {
		t.Fatal("InstrumentOnly still executed on the OS core")
	}
	if r.OverheadCycles == 0 {
		t.Fatal("InstrumentOnly charged no overhead")
	}
}

func TestInstrumentationOverheadHurts(t *testing.T) {
	base := MustNew(quickCfg(workloads.Apache(), policy.Baseline)).Run()
	cfg := quickCfg(workloads.Apache(), policy.DynamicInstrumentation)
	cfg.Threshold = 1 << 30 // never offload
	cfg.InstrumentOnly = true
	di := MustNew(cfg).Run()
	if di.Throughput >= base.Throughput {
		t.Fatalf("DI instrumentation (%.4f) should cost throughput vs baseline (%.4f)",
			di.Throughput, base.Throughput)
	}
}

func TestQueueingEmergesWithMoreCores(t *testing.T) {
	mk := func(cores int) Result {
		cfg := quickCfg(workloads.SPECjbb(), policy.HardwarePredictor)
		cfg.Threshold = 100
		cfg.Migration = migration.Custom(1000)
		cfg.UserCores = cores
		cfg.WarmupInstrs = 30_000
		cfg.MeasureInstrs = 100_000
		return MustNew(cfg).Run()
	}
	one := mk(1)
	four := mk(4)
	if four.MeanQueueDelay <= one.MeanQueueDelay {
		t.Fatalf("queuing delay did not grow with user cores: %v vs %v",
			one.MeanQueueDelay, four.MeanQueueDelay)
	}
	if four.OSCoreUtilization <= one.OSCoreUtilization {
		t.Fatalf("OS core utilization did not grow: %v vs %v",
			one.OSCoreUtilization, four.OSCoreUtilization)
	}
	if len(four.PerCoreIPC) != 4 {
		t.Fatalf("per-core IPC has %d entries", len(four.PerCoreIPC))
	}
}

func TestDynamicNAdjustsThreshold(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	cfg.DynamicN = true
	tc := core.DefaultTunerConfig()
	tc.SampleEpoch = 20_000
	tc.BaseRun = 60_000
	tc.MaxRun = 240_000
	cfg.Tuner = tc
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 400_000
	r := MustNew(cfg).Run()
	// The tuner must have run: final threshold is a ladder value.
	onLadder := false
	for _, n := range tc.Ladder {
		if r.Threshold == n {
			onLadder = true
		}
	}
	if !onLadder {
		t.Fatalf("final threshold %d not on the tuner ladder", r.Threshold)
	}
}

func TestDirectMappedPredictorOption(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	cfg.DirectMappedPredictor = true
	r := MustNew(cfg).Run()
	if r.Offloads == 0 && r.OffloadRate != 0 {
		t.Fatal("inconsistent offload accounting")
	}
	if r.AllEntryExact < 0.4 {
		t.Fatalf("direct-mapped all-entry accuracy too low: %v", r.AllEntryExact)
	}
}

func TestSIOffloadsOnlyLongSyscalls(t *testing.T) {
	cfg := quickCfg(workloads.Apache(), policy.StaticInstrumentation)
	cfg.Migration = migration.Conservative()
	r := MustNew(cfg).Run()
	// SI at conservative instruments few syscalls; offload rate must be
	// far below HI at N=0.
	if r.OffloadRate > 0.10 {
		t.Fatalf("SI offload rate %v too high", r.OffloadRate)
	}
}

func TestResultString(t *testing.T) {
	r := MustNew(quickCfg(workloads.Derby(), policy.Baseline)).Run()
	if s := r.String(); s == "" {
		t.Fatal("empty result string")
	}
}
