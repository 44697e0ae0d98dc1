package experiments

import (
	"fmt"
	"io"
	"math"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/workloads"
)

// ParallelAccuracyOptions scales the parallel-vs-serial validation
// sweep: the Figure-4 threshold shape on all four workload classes, run
// multi-core (the parallel engine's reason to exist) on both the serial
// detailed engine and the quantum-parallel one.
type ParallelAccuracyOptions struct {
	// Workloads are the swept workload names (default apache, specjbb,
	// derby, blackscholes).
	Workloads []string
	// Thresholds is the swept off-load threshold list (default 50, 100,
	// 250).
	Thresholds []int
	// Seeds are averaged per point; normalized-IPC error is judged on
	// the seed mean (default 1, 2).
	Seeds []uint64
	// Cores is the simulated user-core count (default 8 — the scale the
	// engine targets).
	Cores int
	// WarmupInstrs and MeasureInstrs are per-core budgets (default 200k
	// / 2M; 8 cores make each run 8x that).
	WarmupInstrs  uint64
	MeasureInstrs uint64
	// Parallel is the engine configuration under test (default
	// sim.DefaultParallel; set Workers to bound host goroutines).
	Parallel sim.Parallel
}

// withDefaults fills zero fields.
func (o ParallelAccuracyOptions) withDefaults() ParallelAccuracyOptions {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"apache", "specjbb", "derby", "blackscholes"}
	}
	if len(o.Thresholds) == 0 {
		o.Thresholds = []int{50, 100, 250}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2}
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = 200_000
	}
	if o.MeasureInstrs == 0 {
		o.MeasureInstrs = 2_000_000
	}
	if !o.Parallel.Enabled {
		o.Parallel = sim.DefaultParallel()
	}
	return o
}

// ParallelAccuracyResult compares quantum-parallel runs against serial
// detailed references across the threshold sweep.
type ParallelAccuracyResult struct {
	Workloads  []string
	Thresholds []int
	Seeds      []uint64
	Cores      int
	Parallel   sim.Parallel

	// NormSerial and NormParallel hold seed-averaged normalized IPC
	// (policy throughput over same-engine baseline throughput), indexed
	// [workload][threshold].
	NormSerial   [][]float64
	NormParallel [][]float64
	// ErrPct is the parallel engine's normalized-IPC error in percent,
	// indexed [workload][threshold], on the seed-averaged values.
	ErrPct [][]float64
	// MeanAbsErrPct and MaxAbsErrPct summarize each workload's row.
	MeanAbsErrPct []float64
	MaxAbsErrPct  []float64

	// SerialSecs and ParallelSecs sum per-run wall time across the whole
	// sweep (baselines included); Speedup is their ratio. Wall-clock
	// speedup requires free host cores: on a saturated or single-core
	// host the ratio degrades toward (or slightly past) 1x while the
	// accuracy columns remain exact.
	SerialSecs   float64
	ParallelSecs float64
	Speedup      float64
}

// ParallelAccuracy runs the threshold sweep twice — serial detailed and
// quantum-parallel — and reports per-point normalized-IPC error plus the
// aggregate wall-clock speedup. Both engines run the baseline too, so
// the comparison is between complete sweeps.
func ParallelAccuracy(o ParallelAccuracyOptions) ParallelAccuracyResult {
	o = o.withDefaults()
	res := ParallelAccuracyResult{
		Workloads:  o.Workloads,
		Thresholds: o.Thresholds,
		Seeds:      o.Seeds,
		Cores:      o.Cores,
		Parallel:   o.Parallel,
	}

	cfgFor := func(name string, threshold int, seed uint64, par bool) sim.Config {
		prof, ok := workloads.ByName(name)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown workload %q", name))
		}
		cfg := sim.DefaultConfig(prof)
		if threshold < 0 {
			cfg.Policy = policy.Baseline
			cfg.Threshold = 0
		} else {
			cfg.Threshold = threshold
		}
		cfg.UserCores = o.Cores
		cfg.WarmupInstrs = o.WarmupInstrs
		cfg.MeasureInstrs = o.MeasureInstrs
		cfg.Seed = seed
		if par {
			cfg.Parallel = o.Parallel
		}
		return cfg
	}

	for _, name := range o.Workloads {
		serRow := make([]float64, len(o.Thresholds))
		parRow := make([]float64, len(o.Thresholds))
		errRow := make([]float64, len(o.Thresholds))
		for _, seed := range o.Seeds {
			serBase, d := timedThroughput(cfgFor(name, -1, seed, false))
			res.SerialSecs += d.Seconds()
			parBase, d2 := timedThroughput(cfgFor(name, -1, seed, true))
			res.ParallelSecs += d2.Seconds()
			for ti, n := range o.Thresholds {
				ser, ds := timedThroughput(cfgFor(name, n, seed, false))
				res.SerialSecs += ds.Seconds()
				par, dp := timedThroughput(cfgFor(name, n, seed, true))
				res.ParallelSecs += dp.Seconds()
				serRow[ti] += ser / serBase / float64(len(o.Seeds))
				parRow[ti] += par / parBase / float64(len(o.Seeds))
			}
		}
		var meanAbs, maxAbs float64
		for ti := range o.Thresholds {
			errRow[ti] = 100 * (parRow[ti]/serRow[ti] - 1)
			a := math.Abs(errRow[ti])
			meanAbs += a / float64(len(o.Thresholds))
			if a > maxAbs {
				maxAbs = a
			}
		}
		res.NormSerial = append(res.NormSerial, serRow)
		res.NormParallel = append(res.NormParallel, parRow)
		res.ErrPct = append(res.ErrPct, errRow)
		res.MeanAbsErrPct = append(res.MeanAbsErrPct, meanAbs)
		res.MaxAbsErrPct = append(res.MaxAbsErrPct, maxAbs)
	}
	if res.ParallelSecs > 0 {
		res.Speedup = res.SerialSecs / res.ParallelSecs
	}
	return res
}

// Render writes the per-workload error table and the speedup line.
func (r ParallelAccuracyResult) Render(w io.Writer) {
	header := []string{"workload"}
	for _, n := range r.Thresholds {
		header = append(header, fmt.Sprintf("err@N=%d", n))
	}
	header = append(header, "mean|err|", "max|err|")
	var rows [][]string
	for wi, name := range r.Workloads {
		row := []string{name}
		for _, e := range r.ErrPct[wi] {
			row = append(row, fmt.Sprintf("%+.2f%%", e))
		}
		row = append(row,
			fmt.Sprintf("%.2f%%", r.MeanAbsErrPct[wi]),
			fmt.Sprintf("%.2f%%", r.MaxAbsErrPct[wi]))
		rows = append(rows, row)
	}
	renderTable(w, fmt.Sprintf(
		"Parallel-engine accuracy: normalized-IPC error vs serial detailed (%d cores, quantum %d, seed-averaged)",
		r.Cores, r.Parallel.Quantum), header, rows)
	fmt.Fprintf(w, "  wall clock: %.1fx (serial %.1fs / parallel %.1fs, %d seeds)\n\n",
		r.Speedup, r.SerialSecs, r.ParallelSecs, len(r.Seeds))
}
