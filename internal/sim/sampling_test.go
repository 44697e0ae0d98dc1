package sim

import (
	"encoding/json"
	"testing"

	"offloadsim/internal/core"
	"offloadsim/internal/policy"
	"offloadsim/internal/telemetry"
	"offloadsim/internal/workloads"
)

// sampledCfg returns a unit-test-sized config with a schedule that
// yields enough measured intervals for the regression estimator.
func sampledCfg(kind policy.Kind) Config {
	cfg := quickCfg(workloads.Apache(), kind)
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 1_000_000
	cfg.Sampling = Sampling{
		Enabled:               true,
		IntervalInstrs:        5_000,
		Ratio:                 5,
		DetailedWarmIntervals: 1,
		WarmStride:            8,
		OSWarmStride:          2,
		WarmupTailInstrs:      50_000,
	}
	return cfg
}

func TestSamplingValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Sampling
	}{
		{"ratio", Sampling{Enabled: true, Ratio: -1}},
		{"stride", Sampling{Enabled: true, WarmStride: -2}},
		{"osStride", Sampling{Enabled: true, OSWarmStride: -1}},
		{"warmGEratio", Sampling{Enabled: true, Ratio: 2, DetailedWarmIntervals: 3}},
		{"replicas", Sampling{Enabled: true, Replicas: -4}},
		{"policy", Sampling{Enabled: true, Warming: WarmPolicy(9)}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: invalid block validated", c.name)
		}
	}
	if err := (Sampling{}).Validate(); err != nil {
		t.Errorf("disabled block rejected: %v", err)
	}
	if err := DefaultSampling().Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}

	// Config-level: the epoch tuner has no defined semantics across
	// functionally-warmed intervals.
	tuned := sampledCfg(policy.HardwarePredictor)
	tuned.DynamicN = true
	tuned.Tuner = core.DefaultTunerConfig()
	if err := tuned.Validate(); err == nil {
		t.Error("Sampling+DynamicN validated")
	}
}

func TestSamplingCanonicalKeys(t *testing.T) {
	base := quickCfg(workloads.Apache(), policy.HardwarePredictor)
	key := func(c Config) string {
		k, err := CanonicalKey(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	detailed := key(base)

	sampled := base
	sampled.Sampling = Sampling{Enabled: true}
	if key(sampled) == detailed {
		t.Fatal("sampled and detailed configs share a cache key")
	}

	// An enabled block with zero fields canonicalizes to the spelled-out
	// defaults.
	explicit := base
	explicit.Sampling = DefaultSampling()
	if key(explicit) != key(sampled) {
		t.Error("blank enabled block and explicit defaults have different keys")
	}

	// A disabled block with stale knobs canonicalizes to plain detailed.
	stale := base
	stale.Sampling = Sampling{Enabled: false, Ratio: 99, WarmStride: 3}
	if key(stale) != detailed {
		t.Error("disabled block with stale knobs changed the key")
	}
}

func TestSamplingExtrapolates(t *testing.T) {
	cfg := sampledCfg(policy.HardwarePredictor)
	s := MustNew(cfg)
	intervals := s.runIntervals()
	r := s.collectSampled(intervals)
	var samples []IntervalSample
	for _, iv := range intervals {
		if iv.Measured {
			samples = append(samples, iv)
		}
	}

	if r.Sampling == nil {
		t.Fatal("sampled run carries no provenance")
	}
	p := r.Sampling
	if p.Intervals != len(samples) {
		t.Errorf("provenance intervals %d != %d samples", p.Intervals, len(samples))
	}
	if len(samples) < olsMinSamples {
		t.Fatalf("only %d samples; schedule should yield at least %d", len(samples), olsMinSamples)
	}
	if p.Estimator != "regression" {
		t.Errorf("estimator %q, want regression with %d samples", p.Estimator, len(samples))
	}
	if p.SampledFraction <= 0 || p.SampledFraction >= 1 {
		t.Errorf("sampled fraction %v outside (0,1)", p.SampledFraction)
	}
	if p.Replicas != 1 {
		t.Errorf("single run reported %d replicas", p.Replicas)
	}
	if r.Throughput <= 0 || r.Throughput > float64(cfg.UserCores) {
		t.Errorf("extrapolated throughput %v out of range", r.Throughput)
	}
	if r.Instrs < cfg.MeasureInstrs*uint64(cfg.UserCores) {
		t.Errorf("retired %d instrs, want at least the %d measured",
			r.Instrs, cfg.MeasureInstrs*uint64(cfg.UserCores))
	}
	for _, s := range samples {
		if s.Instrs == 0 || s.Cycles == 0 {
			t.Fatalf("interval %d measured empty window", s.Index)
		}
	}
}

// TestIntervalsPartitionWindow: the windows a run measures tile its
// measurement window, none skipped and none counted twice. A detailed
// run's telemetry series sums to its Result, and a sampled run's
// intervals sum to each core's measured instructions and off-loads.
func TestIntervalsPartitionWindow(t *testing.T) {
	for _, cores := range []int{1, 2} {
		cfg := quickCfg(workloads.Apache(), policy.HardwarePredictor)
		cfg.UserCores = cores
		s := MustNew(cfg)
		trc, err := s.AttachTelemetry(telemetry.Options{IntervalInstrs: 20_000})
		if err != nil {
			t.Fatal(err)
		}
		r := s.Run()
		series := trc.Capture().Series
		if len(series) < 2 {
			t.Fatalf("%d cores: %d series points, want several", cores, len(series))
		}
		var instrs, entries, offloads uint64
		for _, p := range series {
			instrs += p.Instrs
			entries += p.OSEntries
			offloads += p.Offloads
		}
		if instrs != r.Instrs || entries != r.OSEntries || offloads != r.Offloads {
			t.Errorf("%d cores: series sums instrs %d, OS entries %d, off-loads %d; result has %d, %d, %d",
				cores, instrs, entries, offloads, r.Instrs, r.OSEntries, r.Offloads)
		}
	}

	cfg := sampledCfg(policy.HardwarePredictor)
	cfg.UserCores = 2
	s := MustNew(cfg)
	intervals := s.runIntervals()
	for c, u := range s.users {
		var instrs, offloads uint64
		for _, iv := range intervals {
			instrs += iv.PerCoreInstrs[c]
			offloads += iv.PerCoreOffloads[c]
		}
		if want := u.retired - u.retiredAtMeas; instrs != want {
			t.Errorf("core %d: intervals sum to %d instrs, measured %d", c, instrs, want)
		}
		if want := u.pol.Stats().Offloads.Value(); offloads != want {
			t.Errorf("core %d: intervals sum to %d off-loads, measured %d", c, offloads, want)
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	cfg := sampledCfg(policy.HardwarePredictor)
	a := MustNew(cfg).Run()
	b := MustNew(cfg).Run()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatal("identical sampled runs produced different result JSON")
	}
}

// WarmDetailed executes every interval at full detail, so the only
// error left is extrapolating from the measured subset; the estimate
// must land close to the fully detailed run.
func TestSamplingWarmDetailedTracksDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	cfg := sampledCfg(policy.HardwarePredictor)
	cfg.MeasureInstrs = 2_000_000
	detCfg := cfg
	detCfg.Sampling = Sampling{}
	detailed := MustNew(detCfg).Run()

	cfg.Sampling.Warming = WarmDetailed
	sampled := MustNew(cfg).Run()
	// The run is deterministic, so the tolerance only needs to clear the
	// subset noise of ~100 five-thousand-instruction windows.
	rel := sampled.Throughput/detailed.Throughput - 1
	if rel < -0.08 || rel > 0.08 {
		t.Fatalf("WarmDetailed sampled throughput off by %+.2f%%", 100*rel)
	}
}
