// Command sweep runs a parameter grid (workloads × policies × thresholds
// × migration latencies) and emits machine-readable results for external
// analysis:
//
//	sweep -workloads apache,derby -policies HI,SI -n 50,100,1000 -latencies 100,5000 -format csv
//	sweep -workloads apache -policies HI -n 100 -latencies 100 -format json -energy
//	sweep -workloads apache -n 100,1000 -telemetry-dir ts/   # per-point interval CSVs
//
// Every row is one deterministic simulation; rows also carry normalized
// throughput against the matching single-core baseline, which the tool
// runs automatically per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"offloadsim"
	"offloadsim/internal/cluster"
	"offloadsim/internal/parallel"
)

// Row is one sweep result in export form: the fleet's sweep row plus
// the optional energy columns.
type Row struct {
	cluster.Row
	Joules float64 `json:"joules,omitempty"`
	EDP    float64 `json:"edp,omitempty"`
}

func main() {
	var (
		workloadsFlag = flag.String("workloads", "apache", "comma-separated workloads")
		policiesFlag  = flag.String("policies", "HI", "comma-separated policies: baseline,SI,DI,HI,oracle")
		nFlag         = flag.String("n", "100", "comma-separated thresholds")
		latFlag       = flag.String("latencies", "100", "comma-separated one-way migration latencies")
		format        = flag.String("format", "csv", "output format: csv or json")
		warmup        = flag.Uint64("warmup", 1_000_000, "warmup instructions")
		measure       = flag.Uint64("measure", 1_000_000, "measured instructions")
		seed          = flag.Uint64("seed", 1, "random seed")
		energy        = flag.Bool("energy", false, "include energy/EDP columns (default power model)")
		sampled       = flag.Bool("sampled", false, "run every point in interval-sampling mode (default schedule; see docs/SAMPLING.md)")
		replicas      = flag.Int("replicas", 1, "independent sampled replicas merged per point (requires -sampled)")
		parEngine     = flag.Bool("parallel", false, "run every point on the quantum-parallel detailed engine (docs/PARALLEL.md)")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "host goroutines running sweep points concurrently (results are order- and count-independent)")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (pprof format)")
		memProfile    = flag.String("memprofile", "", "write an end-of-sweep heap profile to this file (pprof format)")
		telemetryDir  = flag.String("telemetry-dir", "", "write a per-point interval time-series CSV into this directory (docs/TELEMETRY.md; incompatible with -sampled)")
		telemetryIval = flag.Uint64("telemetry-interval", 50_000, "time-series sampling cadence in retired instructions (with -telemetry-dir)")
		osCoresFlag   = flag.String("os-cores", "1", "comma-separated OS-core cluster sizes as a sweep axis (docs/OSCORES.md)")
		affinityFlag  = flag.String("affinity", "", "syscall-class affinity map applied to every sweep point, e.g. 'file=0,*=1'")
		asymFlag      = flag.String("asymmetry", "", "per-OS-core speed factors applied to every sweep point, e.g. '1,0.5'")
		asyncFlag     = flag.Bool("async", false, "fire-and-forget off-load for side-effect-only syscall classes")
		depthNFlag    = flag.Int("depth-n", 0, "queue-depth threshold penalty per backlogged request")
		rebalFlag     = flag.Bool("rebalance", false, "route to a strictly less-backlogged OS core over the designated one")
	)
	flag.Parse()

	wls := splitList(*workloadsFlag)
	pols := splitList(*policiesFlag)
	ns, err := splitInts(*nFlag)
	if err != nil {
		fail("bad -n: " + err.Error())
	}
	lats, err := splitInts(*latFlag)
	if err != nil {
		fail("bad -latencies: " + err.Error())
	}
	for _, n := range ns {
		if n < 0 {
			fail(fmt.Sprintf("-n values must be >= 0 (got %d)", n))
		}
	}
	for _, lat := range lats {
		if lat < 0 {
			fail(fmt.Sprintf("-latencies values must be >= 0 (got %d)", lat))
		}
	}
	if *measure == 0 {
		fail("-measure must be positive")
	}
	if *replicas < 1 {
		fail("-replicas must be >= 1")
	}
	if *replicas > 1 && !*sampled {
		fail("-replicas requires -sampled")
	}
	if *workers < 1 {
		fail("-workers must be >= 1")
	}
	oscoreKs, oscoreBlocks, err := oscoreAxis(*osCoresFlag, *affinityFlag, *asymFlag,
		*asyncFlag, *depthNFlag, *rebalFlag)
	if err != nil {
		fail(err.Error())
	}
	withOSCores := oscoreMode(oscoreBlocks)
	if withOSCores && *parEngine {
		fail("-parallel is incompatible with the multi-OS-core cluster model (-os-cores/-affinity/-asymmetry/-async)")
	}
	if *telemetryDir != "" && *sampled {
		fail("-telemetry-dir requires cycle-accurate execution (incompatible with -sampled)")
	}
	if *telemetryDir != "" && *telemetryIval == 0 {
		fail("-telemetry-interval must be positive with -telemetry-dir")
	}
	if *telemetryDir != "" {
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			fail("creating -telemetry-dir: " + err.Error())
		}
	}

	// Profiling hooks: a sweep is the natural harness for profiling the
	// simulation engine under a realistic mix (docs/PERFORMANCE.md walks
	// through the workflow). CPU profiling covers the whole grid; the
	// heap profile is taken after the last point so it shows steady-state
	// retention, not construction transients.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("creating -cpuprofile: " + err.Error())
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting CPU profile: " + err.Error())
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail("creating -memprofile: " + err.Error())
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("writing heap profile: " + err.Error())
			}
		}()
	}
	// The grid flattens into an indexed point list executed on a worker
	// pool. Every point is a pure function of its Config, so concurrency
	// affects wall time only; results land in input order, keeping the
	// emitted rows byte-identical at any -workers.
	type outcome struct {
		res offloadsim.Result
		err error
	}
	baseFor := make(map[string]offloadsim.Config, len(wls))
	for _, wl := range wls {
		prof, ok := offloadsim.WorkloadByName(wl)
		if !ok {
			fail(fmt.Sprintf("unknown workload %q (have: %s)", wl,
				strings.Join(offloadsim.WorkloadNames(), ", ")))
		}
		baseCfg := offloadsim.DefaultConfig(prof)
		baseCfg.Policy = offloadsim.Baseline
		baseCfg.WarmupInstrs = *warmup
		baseCfg.MeasureInstrs = *measure
		baseCfg.Seed = *seed
		if *parEngine {
			baseCfg.Parallel = offloadsim.DefaultParallel()
			// Host parallelism lives in the row fan-out; each point stays
			// single-goroutine so -workers alone bounds the load.
			baseCfg.Parallel.Workers = 1
		}
		if *sampled {
			baseCfg.Sampling = offloadsim.DefaultSampling()
			baseCfg.Sampling.Replicas = *replicas
		}
		baseFor[wl] = baseCfg
	}
	baseOut := parallel.Map(*workers, len(wls), func(i int) outcome {
		res, err := offloadsim.Run(baseFor[wls[i]])
		return outcome{res, err}
	})
	baseRes := make(map[string]offloadsim.Result, len(wls))
	for i, out := range baseOut {
		if out.err != nil {
			fail(out.err.Error())
		}
		baseRes[wls[i]] = out.res
	}

	type point struct {
		wl     string
		kind   offloadsim.PolicyKind
		n, lat int
		osi    int // index into oscoreKs/oscoreBlocks
	}
	var points []point
	for _, wl := range wls {
		for _, pol := range pols {
			kind, ok := offloadsim.ParsePolicy(pol)
			if !ok {
				fail(fmt.Sprintf("unknown policy %q", pol))
			}
			for _, n := range ns {
				for _, lat := range lats {
					for osi := range oscoreKs {
						points = append(points, point{wl, kind, n, lat, osi})
					}
				}
			}
		}
	}
	outs := parallel.Map(*workers, len(points), func(i int) outcome {
		p := points[i]
		cfg := baseFor[p.wl]
		cfg.Policy = p.kind
		cfg.Threshold = p.n
		cfg.Migration = offloadsim.CustomMigration(p.lat)
		cfg.OSCores = oscoreBlocks[p.osi]
		if *telemetryDir != "" {
			// Telemetry is attachment-only, so the traced rows are
			// byte-identical to an untraced sweep of the same grid; the
			// per-point CSV rides along for free. Points write distinct
			// files, so the fan-out needs no coordination.
			res, capt, err := offloadsim.RunTraced(cfg,
				offloadsim.TelemetryOptions{IntervalInstrs: *telemetryIval})
			if err == nil {
				err = writeSeries(*telemetryDir, p.wl, res.Policy, p.n, p.lat, capt.Series)
			}
			return outcome{res, err}
		}
		res, err := offloadsim.Run(cfg)
		return outcome{res, err}
	})

	model := offloadsim.DefaultEnergyModel()
	rows := make([]Row, 0, len(points))
	for i, out := range outs {
		if out.err != nil {
			fail(out.err.Error())
		}
		p, res := points[i], out.res
		row := Row{Row: cluster.BuildRow(cluster.Point{Workload: p.wl, Threshold: p.n, Latency: p.lat},
			res, baseRes[p.wl].Throughput)}
		if withOSCores {
			// A block that collapses to the classic model (K=1) carries
			// no OSCores provenance, so the axis value is the column.
			row.OSCores = oscoreKs[p.osi]
		}
		if *energy {
			if rep, err := offloadsim.Energy(res, model); err == nil {
				row.Joules = rep.Joules
				row.EDP = rep.EDP
			}
		}
		rows = append(rows, row)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fail(err.Error())
		}
	case "csv":
		writeCSV(rows, *energy, withOSCores)
	default:
		fail("format must be csv or json")
	}
}

func writeCSV(rows []Row, energy, oscores bool) {
	head := "workload,policy,threshold,one_way_latency"
	if oscores {
		head += ",os_cores"
	}
	head += ",throughput,normalized,offload_pct,os_util_pct,user_l2_hit,os_l2_hit,c2c_transfers,queue_mean_cyc"
	if energy {
		head += ",joules,edp"
	}
	fmt.Println(head)
	for _, r := range rows {
		fmt.Printf("%s,%s,%d,%d", r.Workload, r.Policy, r.Threshold, r.OneWay)
		if oscores {
			fmt.Printf(",%d", r.OSCores)
		}
		fmt.Printf(",%.6f,%.4f,%.2f,%.2f,%.4f,%.4f,%d,%.1f",
			r.Throughput, r.Normalized, r.OffloadPct, r.OSUtilPct,
			r.UserL2Hit, r.OSL2Hit, r.C2C, r.QueueMean)
		if energy {
			fmt.Printf(",%.6g,%.6g", r.Joules, r.EDP)
		}
		fmt.Println()
	}
}

// writeSeries stores one sweep point's interval time-series under the
// canonical per-point file name.
func writeSeries(dir, workload, policy string, n, lat int, series []offloadsim.TraceIntervalPoint) error {
	f, err := os.Create(filepath.Join(dir, offloadsim.SeriesFileName(workload, policy, n, lat)))
	if err != nil {
		return err
	}
	if err := offloadsim.WriteSeriesCSV(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(msg string) {
	fmt.Fprintf(os.Stderr, "sweep: %s\n", msg)
	os.Exit(2)
}
