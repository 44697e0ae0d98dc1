package sim

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"offloadsim/internal/policy"
)

// replicaCfg is the sampled test config run as n replicas.
func replicaCfg(n int) Config {
	cfg := sampledCfg(policy.HardwarePredictor)
	cfg.MeasureInstrs = 600_000
	cfg.Sampling.Replicas = n
	return cfg
}

func TestRunMergesReplicas(t *testing.T) {
	const n = 3
	r, err := Run(replicaCfg(n))
	if err != nil {
		t.Fatal(err)
	}
	if r.Sampling == nil {
		t.Fatal("merged result carries no provenance")
	}
	if r.Sampling.Replicas != n {
		t.Errorf("provenance replicas %d, want %d", r.Sampling.Replicas, n)
	}

	// Replica i is the one-replica run at seed Seed+i.
	var singles []Result
	for i := 0; i < n; i++ {
		cfg := replicaCfg(1)
		cfg.Seed += uint64(i)
		s, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, s)
	}

	// Interval counts accumulate across replicas. Measured counts vary a
	// little per seed (segments overshoot interval boundaries), so only
	// the schedule-determined total is exact.
	single := singles[0]
	if r.Sampling.TotalIntervals != n*single.Sampling.TotalIntervals {
		t.Errorf("merged total intervals %d, want %d", r.Sampling.TotalIntervals, n*single.Sampling.TotalIntervals)
	}
	if r.Sampling.Intervals <= single.Sampling.Intervals {
		t.Errorf("merged measured intervals %d not above single replica's %d",
			r.Sampling.Intervals, single.Sampling.Intervals)
	}

	// Throughput is the seed-ordered replica mean, and its error is the
	// replica spread's 95% confidence half-width relative to that mean.
	var mean float64
	for _, s := range singles {
		mean += s.Throughput
	}
	mean /= n
	if r.Throughput != mean {
		t.Errorf("merged throughput %v, want replica mean %v", r.Throughput, mean)
	}
	var ss float64
	for _, s := range singles {
		d := s.Throughput - mean
		ss += d * d
	}
	want := 1.96 * (math.Sqrt(ss/(n-1)) / math.Sqrt(n)) / mean
	if r.Sampling.ThroughputRelErr != want {
		t.Errorf("throughput rel err %v, want %v", r.Sampling.ThroughputRelErr, want)
	}
	if want <= 0 {
		t.Errorf("replica spread %v: the seeds should disagree", want)
	}
}

// The acceptance property for parallel replay: the merged result is a
// pure function of the Config, independent of how many workers ran the
// replicas concurrently.
func TestRunReplicasDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := replicaCfg(4)
	runAt := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}

	serial := runAt(1)
	// On single-core machines NumCPU is 1, which would make the second
	// leg identical to the first; a floor of 4 still schedules the four
	// replicas concurrently there.
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	if parallel := runAt(procs); serial != parallel {
		t.Fatal("result JSON differs between GOMAXPROCS=1 and NumCPU")
	}
}
