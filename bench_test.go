// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the core structures. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTableX/BenchmarkFigureX iteration executes the full
// experiment at a moderate scale and reports headline values through
// b.ReportMetric, so `go test -bench` output doubles as a compact
// reproduction log. EXPERIMENTS.md records the full-scale numbers.
package offloadsim_test

import (
	"io"
	"testing"

	"offloadsim"
	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/experiments"
	"offloadsim/internal/policy"
	"offloadsim/internal/rng"
	"offloadsim/internal/sim"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
	"offloadsim/internal/workloads"
)

// benchOptions is the experiment scale used by the table/figure benches:
// large enough that the headline signals (off-loading wins, the N=0
// collapse, the halved-L2 crossover) are visible in the reported metrics,
// small enough that the full bench suite finishes in a few minutes. The
// full-scale numbers live in EXPERIMENTS.md.
func benchOptions() experiments.Options {
	return experiments.Options{
		WarmupInstrs:  800_000,
		MeasureInstrs: 800_000,
		Seed:          1,
		ComputeReps:   []string{"blackscholes"},
	}
}

func BenchmarkTable1SyscallCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableI(io.Discard)
	}
}

func BenchmarkTable2SimulatorParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.TableII(io.Discard)
	}
}

func BenchmarkTable3OSCoreUtilization(b *testing.B) {
	var last experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		last = experiments.TableIII(benchOptions())
	}
	// apache at N=100 and N=10000: the Table III anchors (45.75%/17.68%).
	b.ReportMetric(100*last.Utilization[0][0], "apache_util_N100_%")
	b.ReportMetric(100*last.Utilization[0][3], "apache_util_N10000_%")
}

func BenchmarkFigure1InstrumentationOverhead(b *testing.B) {
	var last experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure1(benchOptions())
	}
	b.ReportMetric(100*last.Slowdowns[0][len(last.Costs)-1], "apache_slowdown_200cyc_%")
}

func BenchmarkFigure2PredictorLookup(b *testing.B) {
	// The single-cycle claim rests on the lookup being one hash + one
	// table probe; this measures the software model's cost per
	// Predict+Update pair.
	p := core.NewCAMPredictor(core.DefaultCAMEntries)
	src := rng.New(42)
	astates := make([]uint64, 512)
	lengths := make([]int, 512)
	for i := range astates {
		astates[i] = src.Uint64()
		lengths[i] = 50 + src.Intn(20000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 511
		p.Predict(astates[k])
		p.Update(astates[k], lengths[k])
	}
}

func BenchmarkFigure3BinaryHitRate(b *testing.B) {
	var last experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure3(benchOptions())
	}
	// Paper anchors at N=500: apache 94.8%, specjbb 93.4%, derby 96.8%,
	// compute 99.6%.
	b.ReportMetric(100*last.HitRate[0][1], "apache_N500_%")
	b.ReportMetric(100*last.HitRate[3][1], "compute_N500_%")
}

func BenchmarkFigure4ThresholdSweep(b *testing.B) {
	var last experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure4(benchOptions())
	}
	norm, _, _ := last.Best(0)
	b.ReportMetric(norm, "apache_best_norm")
	normJbb, _, _ := last.Best(1)
	b.ReportMetric(normJbb, "specjbb_best_norm")
}

func BenchmarkFigure5PolicyComparison(b *testing.B) {
	var last experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure5(benchOptions())
	}
	// HI is policy index 2; [0]=conservative, [1]=aggressive.
	b.ReportMetric(last.Normalized[0][2][0], "apache_HI_cons_norm")
	b.ReportMetric(last.Normalized[0][2][1], "apache_HI_agg_norm")
}

func BenchmarkScalingStudy(b *testing.B) {
	var last experiments.ScalingResult
	for i := 0; i < b.N; i++ {
		last = experiments.Scaling(benchOptions())
	}
	b.ReportMetric(last.MeanQueueDelay[1], "queue_delay_2to1_cyc")
	b.ReportMetric(last.MeanQueueDelay[2], "queue_delay_4to1_cyc")
}

// --- microbenchmarks of the substrates ---

func BenchmarkPredictorDirectMapped(b *testing.B) {
	p := core.NewDirectMappedPredictor(core.DefaultDirectMappedEntries)
	src := rng.New(7)
	astates := make([]uint64, 512)
	for i := range astates {
		astates[i] = src.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 511
		p.Predict(astates[k])
		p.Update(astates[k], 1000)
	}
}

func BenchmarkTraceGenerator(b *testing.B) {
	space := &trace.AddressSpace{}
	src := rng.New(3)
	kernel := trace.NewKernelLayout(space, src.Fork())
	gen := trace.MustNewGenerator(workloads.Apache(), 0, kernel, space, src.Fork())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := gen.Next()
		_ = seg
	}
}

func BenchmarkSimulatedMInstr(b *testing.B) {
	// End-to-end simulator speed: simulated instructions per wall
	// second, the number that bounds experiment turnaround.
	prof, _ := offloadsim.WorkloadByName("apache")
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(prof)
		cfg.Policy = policy.HardwarePredictor
		cfg.Threshold = 100
		cfg.WarmupInstrs = 0
		cfg.MeasureInstrs = 1_000_000
		sim.MustNew(cfg).Run()
	}
	b.ReportMetric(float64(b.N)*1e6/b.Elapsed().Seconds(), "sim_instrs/s")
}

func BenchmarkSyscallSample(b *testing.B) {
	src := rng.New(11)
	spec := syscalls.Lookup(syscalls.Read)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.SampleLength(i%spec.ArgClasses, src)
	}
}

func BenchmarkAblationHalvedL2(b *testing.B) {
	var last experiments.HalvedL2Result
	for i := 0; i < b.N; i++ {
		last = experiments.HalvedL2(benchOptions())
	}
	b.ReportMetric(float64(last.CrossoverLatency()), "crossover_latency_cyc")
}

func BenchmarkAblationDecisionMechanisms(b *testing.B) {
	var last experiments.PredictorAblationResult
	for i := 0; i < b.N; i++ {
		last = experiments.PredictorAblation(benchOptions())
	}
	for i, v := range last.Variants {
		if v == "oracle" {
			b.ReportMetric(last.Normalized[i], "oracle_norm")
		}
		if v == "HI-CAM" {
			b.ReportMetric(last.Normalized[i], "hi_cam_norm")
		}
	}
}

func BenchmarkEnergyEDP(b *testing.B) {
	// The future-work extension: EDP of HI off-loading relative to the
	// baseline under the default asymmetric power model.
	prof, _ := offloadsim.WorkloadByName("apache")
	model := offloadsim.DefaultEnergyModel()
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := offloadsim.DefaultConfig(prof)
		base.Policy = offloadsim.Baseline
		base.WarmupInstrs = 200_000
		base.MeasureInstrs = 400_000
		bres, err := offloadsim.Run(base)
		if err != nil {
			b.Fatal(err)
		}
		hi := base
		hi.Policy = offloadsim.HardwarePredictor
		hi.Threshold = 100
		hi.Migration = offloadsim.Aggressive()
		hres, err := offloadsim.Run(hi)
		if err != nil {
			b.Fatal(err)
		}
		be, _ := offloadsim.Energy(bres, model)
		he, _ := offloadsim.Energy(hres, model)
		ratio = he.EDP / be.EDP
	}
	b.ReportMetric(ratio, "EDP_vs_baseline")
}

func BenchmarkCoherenceReadWrite(b *testing.B) {
	sys := coherenceSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i) & 1023
		if i&1 == 0 {
			sys.Read(i&1, line)
		} else {
			sys.Write((i>>1)&1, line)
		}
	}
}

// coherenceSystem builds a 2-node Table II system for microbenchmarks.
func coherenceSystem() *coherence.System {
	return coherence.MustNew(coherence.DefaultConfig())
}
