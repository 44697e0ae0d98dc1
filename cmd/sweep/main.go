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
// runs automatically per workload. The grid is a cluster.SweepRequest,
// expanded, defaulted and mapped to per-point specs exactly as offsimd's
// POST /v1/sweeps does, so a grid run here and on the fleet yields the
// same rows.
package main

import (
	"encoding/json"
	"errors"
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

// plan is a parsed sweep command line: each workload's baseline config
// and every grid point's config, all built before the first simulation
// runs, plus the output options.
type plan struct {
	workloads []string
	baselines []offloadsim.Config // one per workload, in order
	points    []point
	// withOSCores adds the os_cores column: set when the -os-cores axis
	// departs from the classic model, so legacy output stays unchanged.
	withOSCores   bool
	format        string
	energy        bool
	workers       int
	cpuProfile    string
	memProfile    string
	telemetryDir  string
	telemetryIval uint64
}

// point is one grid cell: the fleet's grid point, the OS-core count it
// runs with, and its config.
type point struct {
	cluster.Point
	osCores int
	cfg     offloadsim.Config
}

// parseArgs turns the command line into a plan. The grid flags build a
// cluster.SweepRequest, so the fleet's validation, defaults, expansion,
// baseline point and point-to-Spec mapping apply; the -os-cores axis
// and its companion flags then vary each point's Spec.
func parseArgs(args []string) (*plan, error) {
	var (
		pl  plan
		req cluster.SweepRequest
		osc offloadsim.Spec // the cluster flags, applied at every K
		fs  = flag.NewFlagSet("sweep", flag.ContinueOnError)
	)
	workloads := fs.String("workloads", "apache", "comma-separated workloads")
	policies := fs.String("policies", "HI", "comma-separated policies: baseline,SI,DI,HI,oracle")
	thresholds := fs.String("n", "100", "comma-separated thresholds")
	latencies := fs.String("latencies", "100", "comma-separated one-way migration latencies")
	fs.StringVar(&pl.format, "format", "csv", "output format: csv or json")
	req.WarmupInstrs = fs.Uint64("warmup", 1_000_000, "warmup instructions")
	req.MeasureInstrs = fs.Uint64("measure", 1_000_000, "measured instructions")
	req.Seed = fs.Uint64("seed", 1, "random seed")
	fs.BoolVar(&pl.energy, "energy", false, "include energy/EDP columns (default power model)")
	sampled := fs.Bool("sampled", false, "run every point in interval-sampling mode (default schedule; see docs/SAMPLING.md)")
	fs.IntVar(&req.Replicas, "replicas", 1, "independent sampled replicas merged per point (requires -sampled)")
	parEngine := fs.Bool("parallel", false, "run every point on the quantum-parallel detailed engine (docs/PARALLEL.md)")
	fs.IntVar(&pl.workers, "workers", runtime.GOMAXPROCS(0), "host goroutines running sweep points concurrently (results are order- and count-independent)")
	fs.StringVar(&pl.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file (pprof format)")
	fs.StringVar(&pl.memProfile, "memprofile", "", "write an end-of-sweep heap profile to this file (pprof format)")
	fs.StringVar(&pl.telemetryDir, "telemetry-dir", "", "write a per-point interval time-series CSV into this directory (docs/TELEMETRY.md; incompatible with -sampled)")
	fs.Uint64Var(&pl.telemetryIval, "telemetry-interval", 50_000, "time-series sampling cadence in retired instructions (with -telemetry-dir)")
	osCores := fs.String("os-cores", "1", "comma-separated OS-core cluster sizes as a sweep axis (docs/OSCORES.md)")
	fs.StringVar(&osc.Affinity, "affinity", "", "syscall-class affinity map applied to every sweep point, e.g. 'file=0,*=1'")
	fs.StringVar(&osc.Asymmetry, "asymmetry", "", "per-OS-core speed factors applied to every sweep point, e.g. '1,0.5'")
	fs.BoolVar(&osc.Async, "async", false, "fire-and-forget off-load for side-effect-only syscall classes")
	fs.IntVar(&osc.DepthN, "depth-n", 0, "queue-depth threshold penalty per backlogged request")
	fs.BoolVar(&osc.Rebalance, "rebalance", false, "route to a strictly less-backlogged OS core over the designated one")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if pl.format != "csv" && pl.format != "json" {
		return nil, fmt.Errorf("format must be csv or json")
	}
	if pl.workers < 1 {
		return nil, fmt.Errorf("-workers must be >= 1")
	}
	if pl.telemetryDir != "" && *sampled {
		return nil, fmt.Errorf("-telemetry-dir requires cycle-accurate execution (incompatible with -sampled)")
	}
	if pl.telemetryDir != "" && pl.telemetryIval == 0 {
		return nil, fmt.Errorf("-telemetry-interval must be positive with -telemetry-dir")
	}
	var err error
	if req.Thresholds, err = splitInts(*thresholds); err != nil {
		return nil, fmt.Errorf("bad -n: %v", err)
	}
	if req.Latencies, err = splitInts(*latencies); err != nil {
		return nil, fmt.Errorf("bad -latencies: %v", err)
	}
	ks, err := oscoreAxis(*osCores)
	if err != nil {
		return nil, err
	}
	req.Workloads, req.Policies = splitList(*workloads), splitList(*policies)
	switch {
	case *sampled:
		req.Mode = "sampled"
	case *parEngine:
		req.Mode = "parallel"
	}
	req, grid, err := req.Expand()
	if err != nil {
		// The fleet's errors carry the "sweep: " prefix main adds.
		return nil, errors.New(strings.TrimPrefix(err.Error(), "sweep: "))
	}

	config := func(spec offloadsim.Spec) (offloadsim.Config, error) {
		if req.Mode == "parallel" {
			// Host parallelism lives in the row fan-out; each point stays
			// single-goroutine so -workers alone bounds the load.
			spec.Workers = 1
		}
		cfg, err := spec.Config()
		if err != nil || !(*sampled && *parEngine) {
			return cfg, err
		}
		// -sampled -parallel runs each sampled point's detailed
		// intervals on the parallel engine. The wire's mode names one
		// engine, so this is the one pairing a Spec cannot express.
		cfg.Parallel = offloadsim.DefaultParallel()
		cfg.Parallel.Workers = 1
		return cfg, cfg.Validate()
	}
	pl.workloads = req.Workloads
	for _, wl := range req.Workloads {
		cfg, err := config(req.PointSpec(cluster.BaselinePoint(wl)))
		if err != nil {
			return nil, err
		}
		pl.baselines = append(pl.baselines, cfg)
	}
	pl.withOSCores = len(ks) != 1
	for _, p := range grid {
		for _, k := range ks {
			spec := req.PointSpec(p)
			spec.OSCores, spec.Affinity, spec.Asymmetry = k, osc.Affinity, osc.Asymmetry
			spec.Async, spec.DepthN, spec.Rebalance = osc.Async, osc.DepthN, osc.Rebalance
			cfg, err := config(spec)
			if err != nil {
				return nil, err
			}
			col := 1 // a disabled block is the classic single OS core
			if cfg.OSCores.Enabled {
				col = cfg.OSCores.K
				pl.withOSCores = true
			}
			pl.points = append(pl.points, point{p, col, cfg})
		}
	}
	return &pl, nil
}

// oscoreAxis parses the -os-cores list. Each value's bounds are the
// Spec's os_cores bounds, checked when the points are built.
func oscoreAxis(list string) ([]int, error) {
	ks, err := splitInts(list)
	if err != nil {
		return nil, fmt.Errorf("bad -os-cores: %v", err)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-os-cores needs at least one value")
	}
	seen := make(map[int]bool, len(ks))
	for _, k := range ks {
		if seen[k] {
			return nil, fmt.Errorf("duplicate -os-cores value %d", k)
		}
		seen[k] = true
	}
	return ks, nil
}

// rows runs the plan: the baselines, then the grid on a pool of
// pl.workers goroutines. Every point is a pure function of its Config,
// so concurrency affects wall time only; rows land in grid order,
// byte-identical at any -workers.
func rows(pl *plan) ([]Row, error) {
	type outcome struct {
		res offloadsim.Result
		err error
	}
	baseOut := parallel.Map(pl.workers, len(pl.baselines), func(i int) outcome {
		res, err := offloadsim.Run(pl.baselines[i])
		return outcome{res, err}
	})
	baseline := make(map[string]float64, len(pl.workloads))
	for i, out := range baseOut {
		if out.err != nil {
			return nil, out.err
		}
		baseline[pl.workloads[i]] = out.res.Throughput
	}
	outs := parallel.Map(pl.workers, len(pl.points), func(i int) outcome {
		p := pl.points[i]
		if pl.telemetryDir != "" {
			// Telemetry is attachment-only, so the traced rows are
			// byte-identical to an untraced sweep of the same grid; the
			// per-point CSV rides along for free. Points write distinct
			// files, so the fan-out needs no coordination.
			res, capt, err := offloadsim.RunTraced(p.cfg,
				offloadsim.TelemetryOptions{IntervalInstrs: pl.telemetryIval})
			if err == nil {
				err = writeSeries(pl.telemetryDir, p.Workload, res.Policy, p.Threshold, p.Latency, capt.Series)
			}
			return outcome{res, err}
		}
		res, err := offloadsim.Run(p.cfg)
		return outcome{res, err}
	})

	model := offloadsim.DefaultEnergyModel()
	out := make([]Row, 0, len(pl.points))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		p := pl.points[i]
		row := Row{Row: cluster.BuildRow(p.Point, o.res, baseline[p.Workload])}
		if pl.withOSCores {
			// A block that collapses to the classic model (K=1) carries
			// no OSCores provenance, so the point's K is the column.
			row.OSCores = p.osCores
		}
		if pl.energy {
			if rep, err := offloadsim.Energy(o.res, model); err == nil {
				row.Joules = rep.Joules
				row.EDP = rep.EDP
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func main() {
	pl, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fail(err.Error())
	}
	if pl.telemetryDir != "" {
		if err := os.MkdirAll(pl.telemetryDir, 0o755); err != nil {
			fail("creating -telemetry-dir: " + err.Error())
		}
	}

	// Profiling hooks: a sweep is the natural harness for profiling the
	// simulation engine under a realistic mix (docs/PERFORMANCE.md walks
	// through the workflow). CPU profiling covers the whole grid; the
	// heap profile is taken after the last point so it shows steady-state
	// retention, not construction transients.
	if pl.cpuProfile != "" {
		f, err := os.Create(pl.cpuProfile)
		if err != nil {
			fail("creating -cpuprofile: " + err.Error())
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("starting CPU profile: " + err.Error())
		}
		defer pprof.StopCPUProfile()
	}
	if pl.memProfile != "" {
		defer func() {
			f, err := os.Create(pl.memProfile)
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

	out, err := rows(pl)
	if err != nil {
		fail(err.Error())
	}
	if pl.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err.Error())
		}
		return
	}
	writeCSV(out, pl.energy, pl.withOSCores)
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
