// Command sweep runs a parameter grid (workloads × policies × thresholds
// × migration latencies × OS cores) and emits machine-readable results
// for external analysis:
//
//	sweep -workloads apache,derby -policies HI,SI -n 50,100,1000 -latencies 100,5000 -format csv
//	sweep -workloads apache -policies HI -n 100 -latencies 100 -format json -energy
//	sweep -workloads apache -n 100,1000 -telemetry-dir ts/   # per-point interval CSVs
//
// Every row is one deterministic simulation; rows also carry normalized
// throughput against the matching single-core baseline, which the tool
// runs automatically once per workload. The grid is a
// cluster.SweepRequest run through an in-process cluster.Coordinator,
// the code behind offsimd's POST /v1/sweeps, so a grid run here and on
// the fleet yields the same rows.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"offloadsim"
	"offloadsim/internal/cluster"
)

// Row is one sweep result in export form: the fleet's sweep row plus
// the optional energy columns.
type Row struct {
	cluster.Row
	Joules float64 `json:"joules,omitempty"`
	EDP    float64 `json:"edp,omitempty"`
}

// plan is a parsed sweep command line: the defaulted grid, the OS-core
// flags its grid points add, and the output options. parseArgs builds
// every config the plan runs before the first simulation starts.
type plan struct {
	req    cluster.SweepRequest // -workers is its Concurrency
	osc    offloadsim.Spec      // the OS-core flags applied at every K
	points int                  // grid points, the -os-cores axis included
	// withOSCores adds the os_cores column: set when the -os-cores axis
	// departs from the classic model, so legacy output stays unchanged.
	withOSCores   bool
	format        string
	energy        bool
	cpuProfile    string
	memProfile    string
	telemetryDir  string
	telemetryIval uint64
}

// parseArgs turns the command line into a plan. The grid flags build a
// cluster.SweepRequest, so the fleet's validation, defaults, expansion,
// baseline point and point-to-Spec mapping apply; the -os-cores axis is
// the request's one CLI-only axis, and its companion flags then vary
// each grid point's Spec.
func parseArgs(args []string) (*plan, error) {
	var (
		pl  plan
		req cluster.SweepRequest
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
	fs.IntVar(&req.Concurrency, "workers", runtime.GOMAXPROCS(0), "simulations in flight at once, baselines included (results are order- and count-independent)")
	fs.StringVar(&pl.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file (pprof format)")
	fs.StringVar(&pl.memProfile, "memprofile", "", "write an end-of-sweep heap profile to this file (pprof format)")
	fs.StringVar(&pl.telemetryDir, "telemetry-dir", "", "write a per-point interval time-series CSV into this directory (docs/TELEMETRY.md; incompatible with -sampled)")
	fs.Uint64Var(&pl.telemetryIval, "telemetry-interval", 50_000, "time-series sampling cadence in retired instructions (with -telemetry-dir)")
	osCores := fs.String("os-cores", "1", "comma-separated OS-core cluster sizes as a sweep axis (docs/OSCORES.md)")
	fs.StringVar(&pl.osc.Affinity, "affinity", "", "syscall-class affinity map applied to every sweep point, e.g. 'file=0,*=1'")
	fs.StringVar(&pl.osc.Asymmetry, "asymmetry", "", "per-OS-core speed factors applied to every sweep point, e.g. '1,0.5'")
	fs.BoolVar(&pl.osc.Async, "async", false, "fire-and-forget off-load for side-effect-only syscall classes")
	fs.IntVar(&pl.osc.DepthN, "depth-n", 0, "queue-depth threshold penalty per backlogged request")
	fs.BoolVar(&pl.osc.Rebalance, "rebalance", false, "route to a strictly less-backlogged OS core over the designated one")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if pl.format != "csv" && pl.format != "json" {
		return nil, fmt.Errorf("format must be csv or json")
	}
	if req.Concurrency < 1 {
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
	if req.OSCores, err = oscoreAxis(*osCores); err != nil {
		return nil, err
	}
	req.Workloads, req.Policies = splitList(*workloads), splitList(*policies)
	if *sampled {
		req.Mode = "sampled"
	}
	req, grid, err := req.Expand()
	if err != nil {
		// The fleet's errors carry the "sweep: " prefix main adds.
		return nil, errors.New(strings.TrimPrefix(err.Error(), "sweep: "))
	}
	pl.req, pl.points = req, len(grid)
	var points []cluster.Point // the baselines, then the grid
	for _, wl := range req.Workloads {
		points = append(points, cluster.BaselinePoint(wl))
	}
	pl.withOSCores = len(req.OSCores) != 1
	for _, p := range append(points, grid...) {
		cfg, err := pl.config(p)
		if err != nil {
			return nil, err
		}
		pl.withOSCores = pl.withOSCores || cfg.OSCores.Enabled
	}
	if !pl.withOSCores {
		// The axis is the classic model alone, which K 0 builds too, so
		// the points keep K 0 as on the wire: no column, no K in names.
		pl.req.OSCores = nil
	}
	return &pl, nil
}

// config builds point p's config from the fleet's point spec. Grid
// points add the OS-core flags; baselines take none of them.
func (pl *plan) config(p cluster.Point) (offloadsim.Config, error) {
	spec := pl.req.PointSpec(p)
	if p.Index >= 0 {
		spec.Affinity, spec.Asymmetry = pl.osc.Affinity, pl.osc.Asymmetry
		spec.Async, spec.DepthN, spec.Rebalance = pl.osc.Async, pl.osc.DepthN, pl.osc.Rebalance
	}
	return spec.Config()
}

// run simulates point p. Under -telemetry-dir a grid point also writes
// its interval time-series; telemetry is attachment-only, so the traced
// result is the one an untraced run gives.
func (pl *plan) run(p cluster.Point) (offloadsim.Result, error) {
	cfg, err := pl.config(p)
	if err != nil {
		return offloadsim.Result{}, err
	}
	if pl.telemetryDir == "" || p.Index < 0 {
		return offloadsim.Run(cfg)
	}
	res, capt, err := offloadsim.RunTraced(cfg,
		offloadsim.TelemetryOptions{IntervalInstrs: pl.telemetryIval})
	if err == nil {
		name := offloadsim.SeriesFileName(p.Workload, res.Policy, p.Threshold, p.Latency, p.OSCores)
		err = writeSeries(filepath.Join(pl.telemetryDir, name), capt.Series)
	}
	return res, err
}

// oscoreAxis parses the -os-cores list. Each value's bounds are the
// Spec's os_cores bounds, checked when the points are built. A K of 0
// takes the default single OS core, so it reads as 1 and duplicates 1.
func oscoreAxis(list string) ([]int, error) {
	ks, err := splitInts(list)
	if err != nil {
		return nil, fmt.Errorf("bad -os-cores: %v", err)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("-os-cores needs at least one value")
	}
	seen := make(map[int]bool, len(ks))
	for i, k := range ks {
		if k == 0 {
			k, ks[i] = 1, 1
		}
		if seen[k] {
			return nil, fmt.Errorf("duplicate -os-cores value %d", k)
		}
		seen[k] = true
	}
	return ks, nil
}

// rows runs the plan's grid through an in-process cluster.Coordinator
// with at most -workers simulations in flight, baselines included.
// Every point is a pure function of its config, so concurrency affects
// wall time only; rows land in grid order, byte-identical at any
// -workers.
func rows(pl *plan) ([]Row, error) {
	results := make([]offloadsim.Result, pl.points) // by grid index, for energy
	coord := cluster.Coordinator{RunPoint: func(_ context.Context, _ cluster.SweepRequest, p cluster.Point) ([]byte, error) {
		res, err := pl.run(p)
		if err != nil {
			return nil, err
		}
		if p.Index >= 0 {
			results[p.Index] = res
		}
		return json.Marshal(res)
	}}
	sw, err := coord.Start(context.Background(), "sweep", pl.req)
	if err != nil {
		return nil, err
	}
	model := offloadsim.DefaultEnergyModel()
	out := make([]Row, 0, pl.points)
	err = sw.Stream(context.Background(), func(pr *cluster.PointResult) error {
		if pr.Row == nil {
			return errors.New(pr.Error)
		}
		row := Row{Row: *pr.Row}
		if pl.energy {
			if rep, err := offloadsim.Energy(results[pr.Index], model); err == nil {
				row.Joules = rep.Joules
				row.EDP = rep.EDP
			}
		}
		out = append(out, row)
		return nil
	})
	return out, err
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
	if err := pl.write(os.Stdout, out); err != nil {
		fail(err.Error())
	}
}

// write renders rows to w in the plan's format.
func (pl *plan) write(w io.Writer, rows []Row) error {
	if pl.format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	bw := bufio.NewWriter(w)
	head := "workload,policy,threshold,one_way_latency"
	if pl.withOSCores {
		head += ",os_cores"
	}
	head += ",throughput,normalized,offload_pct,os_util_pct,user_l2_hit,os_l2_hit,c2c_transfers,queue_mean_cyc"
	if pl.energy {
		head += ",joules,edp"
	}
	fmt.Fprintln(bw, head)
	for _, r := range rows {
		fmt.Fprintf(bw, "%s,%s,%d,%d", r.Workload, r.Policy, r.Threshold, r.OneWay)
		if pl.withOSCores {
			fmt.Fprintf(bw, ",%d", r.OSCores)
		}
		fmt.Fprintf(bw, ",%.6f,%.4f,%.2f,%.2f,%.4f,%.4f,%d,%.1f",
			r.Throughput, r.Normalized, r.OffloadPct, r.OSUtilPct,
			r.UserL2Hit, r.OSL2Hit, r.C2C, r.QueueMean)
		if pl.energy {
			fmt.Fprintf(bw, ",%.6g,%.6g", r.Joules, r.EDP)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// writeSeries stores one sweep point's interval time-series at path.
func writeSeries(path string, series []offloadsim.TraceIntervalPoint) error {
	f, err := os.Create(path)
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
