// Golden-result gate: every configuration in the canonical matrix must
// produce byte-identical sim.Result JSON to the corpus committed under
// testdata/golden/. The corpus was generated at the pre-optimization
// commit of the engine rewrite, so any hot-path change that perturbs a
// single random draw, latency composition or counter shows up here as a
// diff — performance work on a simulator is only trustworthy when its
// results are provably unchanged.
//
// Regenerate with `make golden` (go test -run TestGoldenResults -update).
// Regeneration is legitimate only when a change *intends* to alter
// simulated behaviour (a model fix, a new default); it is never
// legitimate for a performance PR. docs/PERFORMANCE.md has the workflow.
package offloadsim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"offloadsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current engine (never for a perf PR)")

// goldenWorkloads is the corpus's workload axis: the paper's three server
// workloads plus one compute representative.
var goldenWorkloads = []string{"apache", "specjbb", "derby", "blackscholes"}

// goldenCase is one cell of the matrix.
type goldenCase struct {
	name string
	cfg  offloadsim.Config
}

// goldenSampling is a compressed sampling schedule so the sampled cells
// exercise interval switching, warming and extrapolation at corpus scale
// (60 intervals, 6 detailed per run).
func goldenSampling() offloadsim.Sampling {
	s := offloadsim.DefaultSampling()
	s.IntervalInstrs = 10_000
	s.Ratio = 10
	s.WarmupTailInstrs = 100_000
	return s
}

// goldenCases builds the matrix: workload x {baseline, static-N,
// dynamic-N} x {detailed, sampled, parallel}, plus a parallel+sampled
// composition cell and a three-replica sampled cell per workload on the
// static-N variant. Dynamic-N has
// no sampled or parallel cell — both combinations are rejected by
// config validation (the epoch tuner's feedback is undefined under
// functional warming and quantum isolation alike). The parallel cells
// run multi-core (the engine's reason to exist) and pin the
// quantum-reconciliation results byte-for-byte: any change to event
// ordering, estimate pricing or the barrier fix-up shows up here.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, wl := range goldenWorkloads {
		prof, ok := offloadsim.WorkloadByName(wl)
		if !ok {
			panic("unknown golden workload " + wl)
		}
		base := offloadsim.DefaultConfig(prof)
		base.WarmupInstrs = 200_000
		base.MeasureInstrs = 500_000
		base.Seed = 1

		variants := []struct {
			name string
			mut  func(*offloadsim.Config)
		}{
			{"baseline", func(c *offloadsim.Config) {
				c.Policy = offloadsim.Baseline
				c.Threshold = 0
			}},
			{"static100", func(c *offloadsim.Config) {
				c.Policy = offloadsim.HardwarePredictor
				c.Threshold = 100
			}},
			{"dynamic", func(c *offloadsim.Config) {
				c.Policy = offloadsim.HardwarePredictor
				c.Threshold = 100
				c.DynamicN = true
				c.Tuner = offloadsim.DefaultTunerConfig()
			}},
		}
		for _, v := range variants {
			cfg := base
			v.mut(&cfg)
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s_%s_detailed", wl, v.name),
				cfg:  cfg,
			})
			if cfg.DynamicN {
				continue // Sampling/Parallel + DynamicN are rejected by Validate.
			}
			scfg := cfg
			scfg.Sampling = goldenSampling()
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s_%s_sampled", wl, v.name),
				cfg:  scfg,
			})
			pcfg := cfg
			pcfg.UserCores = 4
			pcfg.Parallel = offloadsim.DefaultParallel()
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s_%s_parallel", wl, v.name),
				cfg:  pcfg,
			})
			if v.name == "static100" {
				pscfg := pcfg
				pscfg.Sampling = goldenSampling()
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_%s_parallel_sampled", wl, v.name),
					cfg:  pscfg,
				})
				// Three replicas, seeds Seed..Seed+2, merged in seed
				// order: pins the cross-replica averaging and the
				// replica-spread throughput error byte-for-byte.
				rcfg := scfg
				rcfg.Sampling.Replicas = 3
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_%s_sampled_replicas3", wl, v.name),
					cfg:  rcfg,
				})
				// Four user cores sharing the one OS core on the serial
				// engine: the only serial cell whose off-loads queue
				// behind each other, so it pins the reservation queue's
				// wait and mean-delay accounting byte-for-byte.
				mcfg := cfg
				mcfg.UserCores = 4
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_static100_multicore", wl),
					cfg:  mcfg,
				})
				// Multi-OS-core cluster cells (docs/OSCORES.md). The K=2
				// synchronous cell pins affinity routing, per-core queueing
				// and backlog rebalancing; the K=4 async cell additionally
				// pins big/little execution scaling, fire-and-forget
				// dispatch with reconciliation pricing, and the
				// queue-depth threshold feedback — the full surface of the
				// heterogeneous off-load model, byte-for-byte.
				o2cfg := cfg
				o2cfg.UserCores = 2
				o2cfg.OSCores = offloadsim.OSCores{Enabled: true, K: 2, Rebalance: true}
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_oscore2_detailed", wl),
					cfg:  o2cfg,
				})
				o4cfg := cfg
				o4cfg.UserCores = 4
				o4cfg.OSCores = offloadsim.OSCores{
					Enabled:   true,
					K:         4,
					Affinity:  "trap=0,identity=0,file=1,network=2,*=3",
					Asymmetry: "1,1,0.5,0.5",
					Async:     true,
					DepthN:    200,
					Rebalance: true,
				}
				cases = append(cases, goldenCase{
					name: fmt.Sprintf("%s_oscore4_async_detailed", wl),
					cfg:  o4cfg,
				})
			}
		}
	}
	return cases
}

// goldenJSON runs one case and renders its Result in the corpus encoding.
func goldenJSON(t testing.TB, gc goldenCase) []byte {
	res, err := offloadsim.Run(gc.cfg)
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatalf("%s: encoding result: %v", gc.name, err)
	}
	return append(raw, '\n')
}

func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus is not a -short test")
	}
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, gc := range goldenCases() {
		gc := gc
		seen[gc.name+".json"] = true
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(dir, gc.name+".json")
			got := goldenJSON(t, gc)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `make golden` at a known-good commit): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("result drifted from golden corpus %s\n--- want ---\n%s\n--- got ---\n%s",
					path, want, got)
			}
		})
	}
	// The corpus must not carry stale cells the matrix no longer produces.
	if !*updateGolden {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading corpus dir: %v", err)
		}
		for _, e := range entries {
			if !seen[e.Name()] {
				t.Errorf("stale golden file %s (not produced by the matrix; remove or `make golden`)", e.Name())
			}
		}
	}
}
