package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"offloadsim"
	"offloadsim/internal/obs"
	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
)

// setupRepeats is how many times a run builds its workload before
// measuring; setup_s is the median, so one slow start does not move it.
const setupRepeats = 3

// workload is one benchmark workload: setup builds everything a measured
// window needs (engines warmed, fleet listening, caches preloaded).
type workload struct {
	name  string
	setup func(e *env) (instance, error)
	// procs, when set, is the GOMAXPROCS the workload's process runs with.
	procs int
}

// env is what a workload's set-up receives.
type env struct {
	seed    uint64
	digests digestTable
	// rec collects the benchmark's own spans in the traced run, which also
	// turns on the fleet's service tracing; nil otherwise.
	rec *recorder
}

// instance is a set-up workload.
type instance interface {
	// measure runs the workload for at least d and returns what it saw.
	measure(d time.Duration) (*phase, error)
	// finish gathers what the traced run reads after the profiled window:
	// fleet spans and counters, and result documents of sweep points.
	finish(ph *phase) error
	// modelShapes lists one config per job shape for the off-load latency
	// distribution, taken with telemetry outside the profiled window.
	modelShapes() ([]sim.Config, error)
	close()
}

// phase is one measured window's outcome.
type phase struct {
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
	ops       int
	latMS     []float64 // per-operation latency
	// latP50 is the window's typical latency; see each workload for how
	// it is robust to where in the run the host was slow.
	latP50 float64
	// opsPerS and minstrPerS are the window's throughput, medians over
	// its sub-windows (see setRates).
	opsPerS    float64
	minstrPerS float64
	// costBasis is host time per unit of work, the base of the trace
	// overhead ratio (lower is cheaper).
	costBasis float64
	// digests covers the operations every run completes; model holds
	// their decoded results.
	digests digestSet
	model   []sim.Result
	// simulated holds the results of simulations executed in the window,
	// the denominators of the per-unit CPU costs.
	simulated []sim.Result
	// layer carries workload-specific per-layer values.
	layer metricSet
	// fleetSpans are the service spans the fleet recorded (traced run).
	fleetSpans []obs.Span
}

func newPhase() *phase { return &phase{digests: digestSet{}, layer: metricSet{}} }

// window is a stretch of a measured window that does a fixed amount of
// work: a rotation of job shapes, one sweep, or a slice of a saturated
// serving step.
type window struct {
	start, end time.Time
	ops        int
	instrs     float64
}

// setRates reports throughput as the median over windows of their rates,
// so a few seconds of host interference move it less than a mean over the
// whole run would.
func (p *phase) setRates(ws []window) {
	var ops, minstr []float64
	for _, w := range ws {
		if s := w.end.Sub(w.start).Seconds(); s > 0 {
			ops = append(ops, float64(w.ops)/s)
			minstr = append(minstr, w.instrs/1e6/s)
		}
	}
	p.opsPerS, p.minstrPerS = median(ops), median(minstr)
}

// fail counts one failed operation and keeps the first few reasons.
func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) report() {
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "bench: failed:", e)
	}
}

func runWorkload(wl workload, c config) (*report, error) {
	tbl, err := loadDigests()
	if err != nil {
		return nil, err
	}
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	rep := &report{workload: wl.name, host: currentHost(c.seed)}
	d := time.Duration(c.seconds) * time.Second
	if c.traced {
		return rep, runTraced(wl, c, tbl, rep, d)
	}
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		in, err := wl.setup(&env{seed: c.seed, digests: tbl})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()
	ph, err := inst.measure(d)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	ph.report()
	m := metricSet{}
	m.setP("setup_s", setups, 0.5)
	m.set("ops_per_s", ph.opsPerS)
	m.set("sim_minstr_per_s", ph.minstrPerS)
	m["latency_p50_ms"] = metricValue{value: ph.latP50, n: len(ph.latMS)}
	rep.metrics = m.assemble(endToEnd)
	rep.resultsDigest = ph.digests.digest()
	rep.attempted, rep.failed = ph.attempted, ph.failed
	return rep, nil
}

// runTraced measures half a window untraced, then a full window with the
// benchmark's spans, the fleet's service tracing and a CPU profile on,
// and reports the per-layer metrics of the traced window.
func runTraced(wl workload, c config, tbl digestTable, rep *report, d time.Duration) error {
	base, err := wl.setup(&env{seed: c.seed, digests: tbl})
	if err != nil {
		return fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	ph0, err := base.measure(d / 2)
	base.close()
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	ph0.report()

	rec := &recorder{}
	inst, err := wl.setup(&env{seed: c.seed, digests: tbl, rec: rec})
	if err != nil {
		return fmt.Errorf("%s traced set-up: %w", wl.name, err)
	}
	defer inst.close()
	before := readRuntimeCounters()
	var prof bytes.Buffer
	// Sample at 250 Hz rather than pprof's 100 Hz, so even a one-CPU
	// window yields thousands of samples. pprof then tries to set 100 Hz
	// itself, which the runtime refuses with a warning on stderr while
	// keeping the rate set here.
	runtime.SetCPUProfileRate(250)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	heap := watchHeap()
	ph, err := inst.measure(d)
	pprof.StopCPUProfile()
	after := readRuntimeCounters()
	heapMB := heap.medianMB()
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	if err := inst.finish(ph); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	ph.report()
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shapes, err := inst.modelShapes()
	if err != nil {
		return err
	}
	wait, exec, err := offloadLatencies(shapes)
	if err != nil {
		return err
	}

	dir := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d", wl.name, c.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "spans.jsonl"), rec.snapshot()); err != nil {
		return err
	}
	if err := writeJSONL(filepath.Join(dir, "fleet_spans.jsonl"), ph.fleetSpans); err != nil {
		return err
	}

	m := ph.layer
	layerMetrics(m, cp, ph, after.sub(before))
	m.setP("latency_p90_ms", ph.latMS, 0.9)
	m.set("gc.heap_live_mb", heapMB)
	m.setP("sim.new_ms.p50", rec.durations("sim.new"), 0.5)
	m.setP("sim.run_ms.p50", rec.durations("sim.run"), 0.5)
	m.setP("http.submit_ms.p50", rec.durations("http.submit"), 0.5)
	m.setP("http.result_ms.p50", rec.durations("http.result"), 0.5)
	serviceMetrics(m, ph.fleetSpans)
	modelMetrics(m, ph.model)
	m.setP("model.offload_wait_p95_cyc", wait, 0.95)
	m.setP("model.offload_exec_p95_cyc", exec, 0.95)
	m.set("bench.trace_overhead", ratio(ph.costBasis, ph0.costBasis)-1)
	rep.metrics = m.assemble(perLayer)
	rep.resultsDigest = ph.digests.digest()
	rep.attempted = ph0.attempted + ph.attempted
	rep.failed = ph0.failed + ph.failed
	return nil
}

// runtimeCounters are the allocation and GC totals read around the
// traced window.
type runtimeCounters struct{ allocBytes, gcCycles float64 }

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// layerMetrics splits the profile's CPU time across layers and divides
// each engine layer's time by the work count that drives it.
func layerMetrics(m metricSet, cp *cpuProfile, ph *phase, rt runtimeCounters) {
	nanos, total := cp.layerNanos()
	for _, l := range layers {
		m[l+".cpu_share"] = metricValue{value: ratio(float64(nanos[l]), float64(total)), n: len(cp.stacks)}
	}
	var instrs, osEntries, offloads, misses, detailedFrac, sampled float64
	for _, r := range ph.simulated {
		instrs += float64(r.Instrs)
		osEntries += float64(r.OSEntries)
		offloads += float64(r.Offloads)
		misses += float64(r.MemoryFills + r.C2CTransfers)
		if r.Sampling != nil {
			detailedFrac += r.Sampling.SampledFraction
			sampled++
		}
	}
	kinstr := instrs / 1000
	m.set("trace.ns_per_kinstr", ratio(float64(nanos["trace"]), kinstr))
	m.set("cpu.ns_per_kinstr", ratio(float64(nanos["cpu"]), kinstr))
	m.set("cache.ns_per_kinstr", ratio(float64(nanos["cache"]), kinstr))
	m.set("coherence.ns_per_miss", ratio(float64(nanos["coherence"]), misses))
	m.set("policy.ns_per_os_entry", ratio(float64(nanos["policy"]), osEntries))
	m.set("oscore.ns_per_offload", ratio(float64(nanos["oscore"]), offloads))
	m.set("sample.detailed_frac", ratio(detailedFrac, sampled))
	m.set("alloc.bytes_per_kinstr", ratio(rt.allocBytes, kinstr))
	m.set("gc.cycles", rt.gcCycles)
}

// serviceMetrics reads stage durations from the fleet's service spans.
func serviceMetrics(m metricSet, spans []obs.Span) {
	by := map[string][]float64{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], float64(s.DurationNS())/1e6)
	}
	m.setP("server.queue_wait_ms.p50", by["queue_wait"], 0.5)
	m.setP("server.queue_wait_ms.p90", by["queue_wait"], 0.9)
	m.setP("server.admission_ms.p50", by["admission"], 0.5)
	m.setP("server.sim_execute_ms.p50", by["sim_execute"], 0.5)
	m.setP("cluster.peer_forward_ms.p50", by["peer_forward"], 0.5)
	m.setP("cluster.peer_cache_fetch_ms.p50", by["peer_cache_fetch"], 0.5)
	m.setP("cluster.peer_execute_ms.p50", by["peer_execute"], 0.5)
}

// modelMetrics summarizes the modelled design over the results every run
// computes; they are pure functions of the seed.
func modelMetrics(m metricSet, results []sim.Result) {
	var instrs, offloads, c2c, fills float64
	var within5, predictors, userL2, osL2, util, qdelay, withOS float64
	for _, r := range results {
		instrs += float64(r.Instrs)
		offloads += float64(r.Offloads)
		c2c += float64(r.C2CTransfers)
		fills += float64(r.MemoryFills)
		userL2 += r.UserL2HitRate
		if r.Policy == policy.HardwarePredictor.String() || r.Policy == policy.DynamicInstrumentation.String() {
			within5 += r.PredictorWithin5
			predictors++
		}
		if r.HasOSCore {
			osL2 += r.OSL2HitRate
			util += r.OSCoreUtilization
			qdelay += r.MeanQueueDelay
			withOS++
		}
	}
	kinstr := instrs / 1000
	m.set("model.offloads_per_kinstr", ratio(offloads, kinstr))
	m.set("model.predictor_within5", ratio(within5, predictors))
	m.set("model.user_l2_hit", ratio(userL2, float64(len(results))))
	m.set("model.os_l2_hit", ratio(osL2, withOS))
	m.set("model.c2c_per_kinstr", ratio(c2c, kinstr))
	m.set("model.fills_per_kinstr", ratio(fills, kinstr))
	m.set("model.os_core_util", ratio(util, withOS))
	m.set("model.queue_delay_mean_cyc", ratio(qdelay, withOS))
}

// offloadLatencies runs each shape once with the event trace on and pools
// the OS-core queue waits and execution times of its off-loads, in cycles.
func offloadLatencies(shapes []sim.Config) (wait, exec []float64, err error) {
	for _, cfg := range shapes {
		_, capt, err := offloadsim.RunTraced(cfg, offloadsim.TelemetryOptions{Events: true})
		if err != nil {
			return nil, nil, fmt.Errorf("traced model run: %w", err)
		}
		for _, ev := range capt.Events {
			switch ev.Kind {
			case telemetry.KindOffloadQueue, telemetry.KindOSCoreEnqueue:
				wait = append(wait, float64(ev.Cycles))
			case telemetry.KindOffloadExecute, telemetry.KindOSCoreExecute:
				exec = append(exec, float64(ev.Cycles))
			}
		}
	}
	return wait, exec, nil
}

// allWorkloads lists the benchmark's workloads in report order.
//
// The fleet workloads run on one CPU. Their two workers and the HTTP stack
// would otherwise spread over every CPU of the host, and on a shared host
// whatever else runs there then decides their throughput: on a 2-vCPU VM,
// a CPU-bound process on one CPU cut sweep throughput by a quarter at
// GOMAXPROCS=2 and by 1% at GOMAXPROCS=1.
var allWorkloads = []workload{
	{name: "detailed-os", setup: setupDetailedOS},
	{name: "multicore", setup: setupMulticore},
	{name: "sampled-sweep", setup: setupSweep, procs: 1},
	{name: "serve-open", setup: setupServe, procs: 1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}
