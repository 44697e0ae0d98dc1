package experiments

import (
	"fmt"
	"io"
	"math"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
)

// ConfidenceResult quantifies seed sensitivity: the headline comparison
// (baseline vs SI vs HI vs oracle on apache at the aggressive point) is
// repeated across independent seeds and reported as mean ± standard
// deviation of normalized throughput. The simulator is deterministic per
// seed, so this measures *workload-realization* variance, the analogue of
// the paper running multiple benchmark regions.
type ConfidenceResult struct {
	Workload string
	Seeds    []uint64
	Policies []string
	// Mean[p] / StdDev[p] / Min[p] / Max[p] of normalized throughput
	// across seeds for policy index p.
	Mean   []float64
	StdDev []float64
	Min    []float64
	Max    []float64
}

// Confidence runs the study with nSeeds seeds derived from o.Seed.
func Confidence(o Options, nSeeds int) ConfidenceResult {
	if nSeeds < 2 {
		nSeeds = 2
	}
	prof := o.groupProfiles("apache")[0]
	kinds := []policy.Kind{policy.StaticInstrumentation, policy.HardwarePredictor, policy.Oracle}
	res := ConfidenceResult{
		Workload: prof.Name,
		Policies: []string{"SI", "HI", "oracle"},
	}
	for i := 0; i < nSeeds; i++ {
		res.Seeds = append(res.Seeds, o.Seed+uint64(i)*1000003)
	}

	// Grid: per seed, one baseline plus one run per policy.
	var cfgs []sim.Config
	for _, seed := range res.Seeds {
		so := o
		so.Seed = seed
		cfgs = append(cfgs, so.baseConfig(prof, policy.Baseline, 0, 0))
		for _, kind := range kinds {
			cfgs = append(cfgs, so.baseConfig(prof, kind, 100, 100))
		}
	}
	results := o.runBatch(cfgs)

	perPolicy := make([][]float64, len(kinds))
	idx := 0
	for range res.Seeds {
		base := results[idx].Throughput
		idx++
		for pi := range kinds {
			perPolicy[pi] = append(perPolicy[pi], results[idx].Throughput/base)
			idx++
		}
	}
	for _, norms := range perPolicy {
		var sum, sumSq float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range norms {
			sum += v
			sumSq += float64(v * v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		n := float64(len(norms))
		mean := sum / n
		res.Mean = append(res.Mean, mean)
		res.StdDev = append(res.StdDev, math.Sqrt(math.Max(0, sumSq/n-float64(mean*mean))))
		res.Min = append(res.Min, lo)
		res.Max = append(res.Max, hi)
	}
	return res
}

// Render writes the study.
func (r ConfidenceResult) Render(w io.Writer) {
	header := []string{"policy", "mean", "stddev", "min", "max"}
	var rows [][]string
	for i, p := range r.Policies {
		rows = append(rows, []string{p,
			fmt.Sprintf("%.3f", r.Mean[i]),
			fmt.Sprintf("%.3f", r.StdDev[i]),
			fmt.Sprintf("%.3f", r.Min[i]),
			fmt.Sprintf("%.3f", r.Max[i]),
		})
	}
	renderTable(w, fmt.Sprintf(
		"Seed sensitivity over %d seeds [%s, N=100, 100-cycle migration; normalized throughput]",
		len(r.Seeds), r.Workload), header, rows)
}
