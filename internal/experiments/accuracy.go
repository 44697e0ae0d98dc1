package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/workloads"
)

// SamplingAccuracyOptions scales the sampled-vs-detailed validation
// sweep. The defaults reproduce the validation scale documented in
// docs/SAMPLING.md: Figure 4's threshold sweep shape on all four
// workload classes, at a cache scale the detailed warm-up intervals can
// actually keep warm, measured long enough for the regression estimator
// to settle.
type SamplingAccuracyOptions struct {
	// Workloads are the swept workload names (default the four classes:
	// apache, specjbb, derby, blackscholes-as-compute).
	Workloads []string
	// Thresholds is the swept off-load threshold list (default 50, 100,
	// 250 — the rising edge of Figure 4 where accuracy matters most).
	Thresholds []int
	// Seeds are averaged per point; normalized-IPC error is judged on
	// the seed mean (default 1, 2).
	Seeds []uint64
	// WarmupInstrs and MeasureInstrs are per-run budgets (default 1M /
	// 64M).
	WarmupInstrs  uint64
	MeasureInstrs uint64
	// L2SizeBytes overrides the per-node L2 capacity (default 256 KiB —
	// the validation scale; see docs/SAMPLING.md for why full-size L2s
	// bias strided warming).
	L2SizeBytes int
	// Sampling is the schedule under test (default sim.DefaultSampling).
	Sampling sim.Sampling
}

// withDefaults fills zero fields.
func (o SamplingAccuracyOptions) withDefaults() SamplingAccuracyOptions {
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"apache", "specjbb", "derby", "blackscholes"}
	}
	if len(o.Thresholds) == 0 {
		o.Thresholds = []int{50, 100, 250}
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1, 2}
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = 1_000_000
	}
	if o.MeasureInstrs == 0 {
		o.MeasureInstrs = 64_000_000
	}
	if o.L2SizeBytes == 0 {
		o.L2SizeBytes = 256 * 1024
	}
	if !o.Sampling.Enabled {
		o.Sampling = sim.DefaultSampling()
	}
	return o
}

// SamplingAccuracyResult compares interval-sampled runs against fully
// detailed references across the Figure-4 threshold sweep.
type SamplingAccuracyResult struct {
	Workloads  []string
	Thresholds []int
	Seeds      []uint64
	Sampling   sim.Sampling

	// NormDetailed and NormSampled hold seed-averaged normalized IPC
	// (policy throughput over same-mode baseline throughput), indexed
	// [workload][threshold].
	NormDetailed [][]float64
	NormSampled  [][]float64
	// ErrPct is the normalized-IPC error of sampling in percent,
	// indexed [workload][threshold], on the seed-averaged values.
	ErrPct [][]float64
	// MeanAbsErrPct and MaxAbsErrPct summarize each workload's row.
	MeanAbsErrPct []float64
	MaxAbsErrPct  []float64

	// DetailedSecs and SampledSecs sum the per-run wall time of each
	// mode across the whole sweep (baselines included); Speedup is their
	// ratio.
	DetailedSecs float64
	SampledSecs  float64
	Speedup      float64
}

// SamplingAccuracy runs the Figure-4 threshold sweep twice — fully
// detailed and interval-sampled — and reports per-point normalized-IPC
// error plus the aggregate speedup. Both modes run the baseline too, so
// the comparison is between complete sweeps: sampled error includes
// whatever noise sampling adds to the denominator.
func SamplingAccuracy(o SamplingAccuracyOptions) SamplingAccuracyResult {
	o = o.withDefaults()
	res := SamplingAccuracyResult{
		Workloads:  o.Workloads,
		Thresholds: o.Thresholds,
		Seeds:      o.Seeds,
		Sampling:   o.Sampling,
	}

	cfgFor := func(name string, threshold int, seed uint64, sampled bool) sim.Config {
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
		cfg.WarmupInstrs = o.WarmupInstrs
		cfg.MeasureInstrs = o.MeasureInstrs
		cfg.Seed = seed
		cfg.Coherence.L2.SizeBytes = o.L2SizeBytes
		if sampled {
			cfg.Sampling = o.Sampling
		}
		return cfg
	}

	for _, name := range o.Workloads {
		detRow := make([]float64, len(o.Thresholds))
		sampRow := make([]float64, len(o.Thresholds))
		errRow := make([]float64, len(o.Thresholds))
		for _, seed := range o.Seeds {
			detBase, d := timedThroughput(cfgFor(name, -1, seed, false))
			res.DetailedSecs += d.Seconds()
			sampBase, d2 := timedThroughput(cfgFor(name, -1, seed, true))
			res.SampledSecs += d2.Seconds()
			for ti, n := range o.Thresholds {
				det, dd := timedThroughput(cfgFor(name, n, seed, false))
				res.DetailedSecs += dd.Seconds()
				samp, ds := timedThroughput(cfgFor(name, n, seed, true))
				res.SampledSecs += ds.Seconds()
				detRow[ti] += det / detBase / float64(len(o.Seeds))
				sampRow[ti] += samp / sampBase / float64(len(o.Seeds))
			}
		}
		var meanAbs, maxAbs float64
		for ti := range o.Thresholds {
			errRow[ti] = 100 * (sampRow[ti]/detRow[ti] - 1)
			a := math.Abs(errRow[ti])
			meanAbs += a / float64(len(o.Thresholds))
			if a > maxAbs {
				maxAbs = a
			}
		}
		res.NormDetailed = append(res.NormDetailed, detRow)
		res.NormSampled = append(res.NormSampled, sampRow)
		res.ErrPct = append(res.ErrPct, errRow)
		res.MeanAbsErrPct = append(res.MeanAbsErrPct, meanAbs)
		res.MaxAbsErrPct = append(res.MaxAbsErrPct, maxAbs)
	}
	if res.SampledSecs > 0 {
		res.Speedup = res.DetailedSecs / res.SampledSecs
	}
	return res
}

// timedThroughput runs cfg on the engine its config selects and returns
// the throughput with the run's wall time.
func timedThroughput(cfg sim.Config) (float64, time.Duration) {
	t0 := time.Now()
	r, err := sim.Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return r.Throughput, time.Since(t0)
}

// Render writes the per-workload error table and the speedup line.
func (r SamplingAccuracyResult) Render(w io.Writer) {
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
	renderTable(w, "Sampling accuracy: normalized-IPC error, sampled vs detailed (seed-averaged)",
		header, rows)
	fmt.Fprintf(w, "  speedup: %.1fx (detailed %.1fs / sampled %.1fs, %d seeds)\n\n",
		r.Speedup, r.DetailedSecs, r.SampledSecs, len(r.Seeds))
}
