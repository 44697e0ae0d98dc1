// Figure-4 sweep benchmark in both execution modes, and the writer
// behind `make bench-json`: OFFLOADSIM_BENCH_JSON=BENCH_sweep.json
// go test -run TestWriteBenchSweepJSON runs the sweep detailed and
// sampled and records ns/op, simulated instructions per second and the
// sampled-over-detailed speedup.
package offloadsim_test

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"offloadsim"
)

// sweepBudget is the per-run measurement budget of the bench sweep —
// large enough that per-run fixed costs (trace setup, warmup) do not
// drown the mode difference the bench exists to show.
const sweepBudget = 8_000_000

// benchSweepConfigs builds the Figure-4 threshold sweep: per workload a
// baseline plus the hardware predictor at each threshold.
func benchSweepConfigs(sampled bool) []offloadsim.Config {
	var cfgs []offloadsim.Config
	for _, name := range []string{"apache", "specjbb"} {
		prof, ok := offloadsim.WorkloadByName(name)
		if !ok {
			panic(name)
		}
		for _, n := range []int{-1, 50, 100, 250} {
			cfg := offloadsim.DefaultConfig(prof)
			if n < 0 {
				cfg.Policy = offloadsim.Baseline
				cfg.Threshold = 0
			} else {
				cfg.Threshold = n
			}
			cfg.WarmupInstrs = 500_000
			cfg.MeasureInstrs = sweepBudget
			if sampled {
				cfg.Sampling = offloadsim.DefaultSampling()
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// runBenchSweep executes the sweep once and returns its wall time and
// total measured instructions.
func runBenchSweep(tb testing.TB, sampled bool) (time.Duration, uint64) {
	cfgs := benchSweepConfigs(sampled)
	start := time.Now()
	var instrs uint64
	for _, cfg := range cfgs {
		res, err := offloadsim.Run(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		instrs += res.Instrs
	}
	return time.Since(start), instrs
}

func BenchmarkFigure4SweepDetailed(b *testing.B) {
	var instrs uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		d, n := runBenchSweep(b, false)
		elapsed += d
		instrs += n
	}
	b.ReportMetric(float64(instrs)/elapsed.Seconds(), "sim_instrs/s")
}

func BenchmarkFigure4SweepSampled(b *testing.B) {
	var instrs uint64
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		d, n := runBenchSweep(b, true)
		elapsed += d
		instrs += n
	}
	b.ReportMetric(float64(instrs)/elapsed.Seconds(), "sim_instrs/s")
}

// benchSweepMode is one mode's row in BENCH_sweep.json.
type benchSweepMode struct {
	Mode            string  `json:"mode"`
	NsPerOp         float64 `json:"ns_per_op"`
	SimInstrsPerSec float64 `json:"sim_instrs_per_sec"`
	Instrs          uint64  `json:"simulated_instrs"`
}

type benchSweepFile struct {
	Sweep   string           `json:"sweep"`
	Modes   []benchSweepMode `json:"modes"`
	Speedup float64          `json:"speedup"`
}

// TestWriteBenchSweepJSON is the engine of `make bench-json`. It is a
// no-op unless OFFLOADSIM_BENCH_JSON names the output file, so plain
// `go test` stays fast.
func TestWriteBenchSweepJSON(t *testing.T) {
	path := os.Getenv("OFFLOADSIM_BENCH_JSON")
	if path == "" {
		t.Skip("set OFFLOADSIM_BENCH_JSON=<file> to run the sweep bench")
	}
	out := benchSweepFile{Sweep: "figure4-thresholds apache+specjbb N={50,100,250}+baseline"}
	for _, mode := range []string{"detailed", "sampled"} {
		d, instrs := runBenchSweep(t, mode == "sampled")
		out.Modes = append(out.Modes, benchSweepMode{
			Mode:            mode,
			NsPerOp:         float64(d.Nanoseconds()),
			SimInstrsPerSec: float64(instrs) / d.Seconds(),
			Instrs:          instrs,
		})
	}
	out.Speedup = out.Modes[1].SimInstrsPerSec / out.Modes[0].SimInstrsPerSec
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: detailed %.2fs, sampled %.2fs, speedup %.1fx",
		path, out.Modes[0].NsPerOp/1e9, out.Modes[1].NsPerOp/1e9, out.Speedup)
}
