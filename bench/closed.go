package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
	"offloadsim/internal/workloads"
)

// Seed streams: each kind of generated input draws from its own stream,
// so adding a request or a sweep never shifts the seeds of another.
const (
	streamDetailed = iota + 1
	streamMulticore
	streamWarmup
	streamSweep
	streamMiss
	streamHot
	streamArrival
)

// mix derives a seed from the run seed, a stream and an index
// (SplitMix64 over the three words).
func mix(seed, stream, i uint64) uint64 {
	x := seed
	for _, w := range []uint64{stream, i} {
		x += 0x9e3779b97f4a7c15 ^ w*0xbf58476d1ce4e5b9
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

func profile(name string) *workloads.Profile {
	p, ok := workloads.ByName(name)
	if !ok {
		panic("bench: unknown workload profile " + name)
	}
	return p
}

// closedJob is one simulation of a closed-loop workload.
type closedJob struct {
	shape string
	cfg   sim.Config
}

// closedLoop runs jobs back to back from one caller through the library
// (sim.New + Simulator.Run), the way a sweep script drives the engine.
type closedLoop struct {
	e *env
	// job returns the i-th job; consecutive runs of `rotation` jobs cover
	// every shape once, and a window always ends on a rotation boundary so
	// every run measures the same mix.
	job      func(i int) closedJob
	rotation int
	// digestOps jobs are always run and form results_digest.
	digestOps int
	// ratios derives per-layer host-time ratios from per-shape job times.
	ratios func(byShape map[string][]float64, m metricSet)
}

func (c *closedLoop) measure(d time.Duration) (*phase, error) {
	ph := newPhase()
	byShape := map[string][]float64{}
	var windows []window
	start := time.Now()
	for i := 0; i < c.digestOps || i%c.rotation != 0 || time.Since(start) < d; i++ {
		if i%c.rotation == 0 {
			windows = append(windows, window{start: time.Now()})
		}
		w := &windows[len(windows)-1]
		j := c.job(i)
		t0 := time.Now()
		res, err := c.run(fmt.Sprintf("job-%d", i), j, ph, i < c.digestOps)
		ph.attempted++
		w.end = time.Now()
		if err != nil {
			ph.fail(err)
			continue
		}
		ms := float64(w.end.Sub(t0).Microseconds()) / 1e3
		ph.ops++
		ph.latMS = append(ph.latMS, ms)
		ph.simulated = append(ph.simulated, res)
		byShape[j.shape] = append(byShape[j.shape], ms)
		w.ops++
		w.instrs += float64(res.Instrs)
	}
	ph.wall = time.Since(start)
	ph.setRates(windows)
	// Typical latency is the median over rotations of each rotation's
	// median job: every rotation holds the same shapes, so this does not
	// jump between shapes the way one median over all jobs can.
	var rotMedians []float64
	for r := 0; r*c.rotation < len(ph.latMS); r++ {
		rotMedians = append(rotMedians, median(ph.latMS[r*c.rotation:min((r+1)*c.rotation, len(ph.latMS))]))
	}
	ph.latP50 = median(rotMedians)
	ph.costBasis = ph.wall.Seconds() / float64(max(ph.ops, 1))
	if c.ratios != nil {
		c.ratios(byShape, ph.layer)
	}
	return ph, nil
}

// run simulates one job and checks its result bytes.
func (c *closedLoop) run(traceID string, j closedJob, ph *phase, keep bool) (sim.Result, error) {
	root := c.e.rec.begin(traceID, nil, "job")
	defer root.end()
	raw, err := simulate(c.e.rec, traceID, root, j.cfg)
	if err != nil {
		return sim.Result{}, err
	}
	chk := c.e.rec.begin(traceID, root, "check")
	defer chk.end()
	key, err := jobKey(j.cfg)
	if err != nil {
		return sim.Result{}, err
	}
	digest, err := c.e.digests.check(key, raw, c.e.required(keep))
	if err != nil {
		return sim.Result{}, err
	}
	res, err := checkResult(j.cfg, raw)
	if err != nil {
		return sim.Result{}, err
	}
	if keep {
		ph.digests[key] = digest
		ph.model = append(ph.model, res)
	}
	return res, nil
}

// simulate runs cfg through sim.New and Simulator.Run, spanning both
// calls, and returns the result's JSON encoding.
func simulate(rec *recorder, traceID string, parent *activeSpan, cfg sim.Config) ([]byte, error) {
	sp := rec.begin(traceID, parent, "sim.new")
	s, err := sim.New(cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.begin(traceID, parent, "sim.run")
	res := s.Run()
	sp.end()
	return json.Marshal(res)
}

func (c *closedLoop) finish(*phase) error { return nil }
func (c *closedLoop) close()              {}

func (c *closedLoop) modelShapes() ([]sim.Config, error) {
	var out []sim.Config
	for i := 0; i < c.rotation; i++ {
		out = append(out, c.job(i).cfg)
	}
	return out, nil
}

// warmUp runs the untimed warm-up job every set-up starts with: it pages
// in the engine's code and data before anything is timed.
func warmUp(e *env) error {
	cfg := sim.DefaultConfig(profile("apache"))
	cfg.Threshold = 100
	cfg.Seed = mix(e.seed, streamWarmup, 0)
	_, err := simulate(e.rec, "warmup", nil, cfg)
	return err
}

// detailedShape is one cell of the paper's core experiment.
type detailedShape struct {
	workload string
	policy   policy.Kind
	n        int
}

// detailedShapes are three server workloads under the hardware predictor
// at two thresholds, dynamic instrumentation, static instrumentation and
// the no-off-load baseline.
var detailedShapes = func() []detailedShape {
	var out []detailedShape
	for _, wl := range []string{"apache", "specjbb", "derby"} {
		out = append(out,
			detailedShape{wl, policy.HardwarePredictor, 100},
			detailedShape{wl, policy.HardwarePredictor, 1000},
			detailedShape{wl, policy.DynamicInstrumentation, 1000},
			detailedShape{wl, policy.StaticInstrumentation, 1000},
			detailedShape{wl, policy.Baseline, 1000},
		)
	}
	return out
}()

// detailedJob is job i of detailed-os: shapes rotate fastest, and every
// shape of one rotation shares a seed, like the paper's normalized pairs.
func detailedJob(seed uint64, i int) closedJob {
	sh := detailedShapes[i%len(detailedShapes)]
	cfg := sim.DefaultConfig(profile(sh.workload))
	cfg.Policy = sh.policy
	cfg.Threshold = sh.n
	cfg.WarmupInstrs = 300_000
	cfg.MeasureInstrs = 2_000_000
	cfg.Seed = mix(seed, streamDetailed, uint64(i/len(detailedShapes)))
	return closedJob{shape: fmt.Sprintf("%s/%s-%d", sh.workload, sh.policy, sh.n), cfg: cfg}
}

func setupDetailedOS(e *env) (instance, error) {
	if err := warmUp(e); err != nil {
		return nil, err
	}
	return &closedLoop{
		e:         e,
		job:       func(i int) closedJob { return detailedJob(e.seed, i) },
		rotation:  len(detailedShapes),
		digestOps: 2 * len(detailedShapes),
	}, nil
}

// multicoreShapes build the multi-core jobs: the OS-core cluster at K=1,
// K=2 and asymmetric asynchronous K=4; a consolidated server whose mcf
// and canneal tenants overflow the 1 MB L2s; and eight cores on the
// serial and on the quantum-parallel engine.
var multicoreShapes = []struct {
	name  string
	build func(cfg *sim.Config)
}{
	{"4c-k1", func(cfg *sim.Config) {}},
	{"4c-k2", func(cfg *sim.Config) {
		cfg.OSCores = sim.OSCores{Enabled: true, K: 2, Rebalance: true}
	}},
	{"4c-k4-async", func(cfg *sim.Config) {
		cfg.OSCores = sim.OSCores{Enabled: true, K: 4, Async: true, Asymmetry: "1,1,0.5,0.5", Rebalance: true}
	}},
	{"4c-consolidated-k2", func(cfg *sim.Config) {
		for _, n := range []string{"apache", "specjbb", "mcf", "canneal"} {
			cfg.Workloads = append(cfg.Workloads, profile(n))
		}
		cfg.OSCores = sim.OSCores{Enabled: true, K: 2, Rebalance: true}
	}},
	{"8c-serial", func(cfg *sim.Config) { eightCores(cfg) }},
	{"8c-parallel", func(cfg *sim.Config) {
		eightCores(cfg)
		cfg.Parallel = sim.DefaultParallel()
		cfg.Parallel.Workers = runtime.NumCPU()
	}},
}

func eightCores(cfg *sim.Config) {
	cfg.UserCores = 8
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 750_000
}

func multicoreJob(seed uint64, i int) closedJob {
	sh := multicoreShapes[i%len(multicoreShapes)]
	cfg := sim.DefaultConfig(profile("apache"))
	cfg.Threshold = 100
	cfg.UserCores = 4
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 1_500_000
	cfg.Seed = mix(seed, streamMulticore, uint64(i/len(multicoreShapes)))
	sh.build(&cfg)
	return closedJob{shape: sh.name, cfg: cfg}
}

func setupMulticore(e *env) (instance, error) {
	if err := warmUp(e); err != nil {
		return nil, err
	}
	return &closedLoop{
		e:         e,
		job:       func(i int) closedJob { return multicoreJob(e.seed, i) },
		rotation:  len(multicoreShapes),
		digestOps: 2 * len(multicoreShapes),
		ratios: func(by map[string][]float64, m metricSet) {
			m.set("oscore.host_ratio_k4_k1", ratio(median(by["4c-k4-async"]), median(by["4c-k1"])))
			m.set("parallel.speedup", ratio(median(by["8c-serial"]), median(by["8c-parallel"])))
		},
	}, nil
}
