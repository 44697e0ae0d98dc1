// Command offsim runs a single off-loading simulation and prints the
// measured result. It is the interactive front end to the library:
//
//	offsim -workload apache -policy HI -n 100 -latency 100
//	offsim -workload specjbb -policy HI -n 100 -latency 1000 -cores 4
//	offsim -workload derby -policy DI -dynamic -latency 5000
//	offsim -workload apache -trace run.trace.json       # Perfetto-loadable
//	offsim -workload apache -timeseries run.csv         # interval series
//
// Pass -baseline-compare to also run the single-core no-off-loading
// baseline and report normalized throughput. -trace and -timeseries
// attach the telemetry layer (docs/TELEMETRY.md) without changing the
// measured result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"offloadsim"
)

// run is a parsed offsim command line: the simulation's config and the
// output options around it.
type run struct {
	cfg        offloadsim.Config
	jsonOut    bool
	energy     bool
	compare    bool
	traceFile  string
	traceFmt   string
	seriesFile string
	traceIval  uint64
}

// parseArgs binds the flags to an offloadsim.Spec and builds the config
// through Spec.Config, so the command line shares the wire's defaults,
// bounds and error messages. Every check runs here, before anything is
// simulated.
func parseArgs(args []string) (run, error) {
	var (
		r    run
		spec offloadsim.Spec
		fs   = flag.NewFlagSet("offsim", flag.ContinueOnError)
	)
	fs.StringVar(&spec.Workload, "workload", "apache", "workload profile: "+strings.Join(offloadsim.WorkloadNames(), ", "))
	fs.StringVar(&spec.Policy, "policy", "HI", "decision policy: baseline, SI, DI, HI")
	spec.Threshold = fs.Int("n", 1000, "off-load threshold N in instructions")
	spec.LatencyCycles = fs.Int("latency", 100, "one-way migration latency in cycles")
	fs.IntVar(&spec.Cores, "cores", 1, "user cores sharing the OS core")
	fs.BoolVar(&spec.DynamicN, "dynamic", false, "enable the dynamic threshold tuner (DI/HI)")
	fs.BoolVar(&spec.DMPredictor, "dm-predictor", false, "use the 1500-entry direct-mapped predictor instead of the 200-entry CAM")
	spec.WarmupInstrs = fs.Uint64("warmup", 1_000_000, "warmup instructions per core")
	spec.MeasureInstrs = fs.Uint64("measure", 2_000_000, "measured instructions per core")
	spec.Seed = fs.Uint64("seed", 1, "random seed")
	fs.BoolVar(&spec.InstrumentOnly, "instrument-only", false, "charge decision overhead but never migrate (Figure 1 mode)")
	fs.BoolVar(&r.compare, "baseline-compare", false, "also run the no-off-loading baseline and report normalized throughput")
	fs.BoolVar(&r.energy, "energy", false, "evaluate the run under the default asymmetric-CMP energy model")
	fs.BoolVar(&r.jsonOut, "json", false, "emit the full result as JSON instead of text")
	fs.IntVar(&spec.OSSlots, "os-slots", 1, "OS core hardware contexts (SMT extension)")
	fs.BoolVar(&spec.MOESI, "moesi", false, "use the MOESI coherence protocol instead of MESI")
	fs.IntVar(&spec.OSL1KB, "os-l1", 0, "OS core L1 size in KB (0 = same as user cores)")
	fs.StringVar(&r.traceFile, "trace", "", "write a telemetry event trace of the measured phase to this file (docs/TELEMETRY.md)")
	fs.StringVar(&r.traceFmt, "trace-format", "chrome", "trace file format: chrome (Perfetto-loadable) or jsonl")
	fs.StringVar(&r.seriesFile, "timeseries", "", "write the interval time-series to this CSV file")
	fs.Uint64Var(&r.traceIval, "trace-interval", 50_000, "time-series sampling cadence in retired instructions (with -timeseries)")
	fs.IntVar(&spec.OSCores, "os-cores", 1, "OS cores in the off-load cluster (docs/OSCORES.md)")
	fs.StringVar(&spec.Affinity, "affinity", "", "syscall-class affinity map, e.g. 'file=0,network=1,*=0' (requires -os-cores > 1)")
	fs.StringVar(&spec.Asymmetry, "asymmetry", "", "per-OS-core speed factors, e.g. '1,0.5' (big/little cluster)")
	fs.BoolVar(&spec.Async, "async", false, "fire-and-forget off-load for side-effect-only syscall classes")
	fs.IntVar(&spec.AsyncSlots, "async-slots", 0, "outstanding async off-loads per user core (0 = default, requires -async)")
	fs.IntVar(&spec.DepthN, "depth-n", 0, "queue-depth threshold penalty per backlogged request (dynamic-N extension)")
	fs.BoolVar(&spec.Rebalance, "rebalance", false, "route to a strictly less-backlogged OS core over the designated one")
	if err := fs.Parse(args); err != nil {
		return r, err
	}
	if fs.NArg() > 0 {
		return r, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if r.traceFmt != "chrome" && r.traceFmt != "jsonl" {
		return r, fmt.Errorf("-trace-format must be chrome or jsonl (got %q)", r.traceFmt)
	}
	if r.seriesFile != "" && r.traceIval == 0 {
		return r, fmt.Errorf("-trace-interval must be positive with -timeseries")
	}
	var err error
	r.cfg, err = spec.Config()
	return r, err
}

func main() {
	r, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "offsim: %v\n", err)
		os.Exit(2)
	}
	var res offloadsim.Result
	if r.traceFile != "" || r.seriesFile != "" {
		// Telemetry is attachment-only: the traced Result is
		// byte-identical to an untraced run of the same config.
		opts := offloadsim.TelemetryOptions{Events: r.traceFile != ""}
		if r.seriesFile != "" {
			opts.IntervalInstrs = r.traceIval
		}
		var capt *offloadsim.TraceCapture
		res, capt, err = offloadsim.RunTraced(r.cfg, opts)
		if err == nil {
			err = writeTelemetry(capt, r.traceFile, r.traceFmt, r.seriesFile)
		}
	} else {
		res, err = offloadsim.Run(r.cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "offsim: %v\n", err)
		os.Exit(1)
	}
	if r.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "offsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	printResult(res)

	if r.energy {
		rep, err := offloadsim.Energy(res, offloadsim.DefaultEnergyModel())
		if err != nil {
			fmt.Fprintf(os.Stderr, "offsim: energy: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("energy                  %.6f J over %.6f s (%.2f W avg), EDP %.3e J*s\n",
			rep.Joules, rep.Seconds, rep.AvgWatts, rep.EDP)
	}

	if r.compare {
		base := r.cfg
		base.Policy = offloadsim.Baseline
		base.DynamicN = false
		baseRes, err := offloadsim.Run(base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "offsim: baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nbaseline throughput     %.4f\n", baseRes.Throughput)
		fmt.Printf("normalized throughput   %.3f\n", res.Throughput/baseRes.Throughput)
	}
}

// writeTelemetry exports the capture to the requested trace and/or
// time-series files.
func writeTelemetry(capt *offloadsim.TraceCapture, traceFile, format, seriesFile string) error {
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		write := offloadsim.WriteTraceChrome
		if format == "jsonl" {
			write = offloadsim.WriteTraceJSONL
		}
		if err := write(f, capt); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if seriesFile != "" {
		f, err := os.Create(seriesFile)
		if err != nil {
			return err
		}
		if err := offloadsim.WriteSeriesCSV(f, capt.Series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func printResult(r offloadsim.Result) {
	fmt.Printf("workload                %s\n", r.Workload)
	fmt.Printf("policy                  %s (final N=%d)\n", r.Policy, r.Threshold)
	fmt.Printf("migration one-way       %d cycles\n", r.OneWay)
	fmt.Printf("user cores              %d\n", r.UserCores)
	fmt.Printf("instructions            %d\n", r.Instrs)
	fmt.Printf("cycles (max core)       %d\n", r.Cycles)
	fmt.Printf("aggregate throughput    %.4f instr/cycle\n", r.Throughput)
	for i, ipc := range r.PerCoreIPC {
		fmt.Printf("  core %d IPC            %.4f\n", i, ipc)
	}
	fmt.Printf("privileged share        %.1f%%\n", 100*r.PrivFraction)
	fmt.Printf("OS entries              %d (off-loaded %d = %.1f%%)\n",
		r.OSEntries, r.Offloads, 100*r.OffloadRate)
	fmt.Printf("decision overhead       %d cycles\n", r.OverheadCycles)
	fmt.Printf("user L2 hit rate        %.3f\n", r.UserL2HitRate)
	fmt.Printf("OS   L2 hit rate        %.3f\n", r.OSL2HitRate)
	fmt.Printf("OS core utilization     %.1f%%\n", 100*r.OSCoreUtilization)
	fmt.Printf("mean queue delay        %.0f cycles (max %.0f)\n", r.MeanQueueDelay, r.MaxQueueDelay)
	fmt.Printf("coherence: c2c          %d, invalidations %d, memory fills %d\n",
		r.C2CTransfers, r.Invalidations, r.MemoryFills)
	if r.PredictorExact+r.PredictorWithin5 > 0 {
		fmt.Printf("predictor accuracy      %.1f%% exact + %.1f%% within ±5%%\n",
			100*r.PredictorExact, 100*r.PredictorWithin5)
		fmt.Printf("binary decision acc.    %.1f%%\n", 100*r.BinaryAccuracy)
	}
	if len(r.TunerHistory) > 0 {
		fmt.Printf("tuner: %d threshold changes over %d epochs\n", r.TunerChanges, len(r.TunerHistory))
	}
}
