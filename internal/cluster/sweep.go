package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"offloadsim/internal/sim"
)

// SweepRequest is the wire form of POST /v1/sweeps: a Figure-4-style
// parameter grid (workloads × policies × thresholds × latencies) that
// the coordinator decomposes into canonical-keyed jobs and fans across
// the fleet. cmd/sweep builds one from its grid flags and runs it
// through an in-process Coordinator, so the streamed rows equal the
// offline tool's output for the same grid byte for byte. Every point
// runs on the serial detailed engine or the sampled one, as a job spec
// does.
type SweepRequest struct {
	Workloads  []string `json:"workloads"`
	Policies   []string `json:"policies,omitempty"`   // default ["HI"]
	Thresholds []int    `json:"thresholds,omitempty"` // default [100]
	Latencies  []int    `json:"latencies,omitempty"`  // default [100]
	// WarmupInstrs / MeasureInstrs / Seed default to cmd/sweep's
	// 1M / 1M / 1; pointers let an explicit zero warmup survive.
	WarmupInstrs  *uint64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs *uint64 `json:"measure_instrs,omitempty"`
	Seed          *uint64 `json:"seed,omitempty"`
	// Mode selects the execution engine per point: "" / "detailed" or
	// "sampled" (same vocabulary as job specs).
	Mode string `json:"mode,omitempty"`
	// Replicas merges that many sampled replicas per point (requires
	// mode "sampled").
	Replicas int `json:"replicas,omitempty"`
	// Normalize adds per-workload baseline runs and reports normalized
	// throughput like cmd/sweep does. Default true; disable for exact
	// grid-only execution accounting.
	Normalize *bool `json:"normalize,omitempty"`
	// Concurrency bounds how many points are in flight fleet-wide from
	// this sweep (default DefaultSweepConcurrency).
	Concurrency int `json:"concurrency,omitempty"`
	// OSCores is cmd/sweep's -os-cores axis, nested innermost. It has no
	// wire name, so a fleet sweep has no K axis and its points keep K 0.
	OSCores []int `json:"-"`
}

// DefaultSweepConcurrency bounds a sweep's in-flight points when the
// request does not say otherwise.
const DefaultSweepConcurrency = 8

// maxSweepPoints bounds a sweep's grid over its four wire axes. The
// coordinator materializes every point (and a channel per point) up
// front, so the cap keeps a small request body from asking for an
// unbounded cross product.
const maxSweepPoints = 4096

// withDefaults fills cmd/sweep's defaults and validates shape-level
// constraints (per-point config validity is checked when each job spec
// is built).
func (r SweepRequest) withDefaults() (SweepRequest, error) {
	if len(r.Workloads) == 0 {
		return r, fmt.Errorf("sweep: workloads must be non-empty")
	}
	if len(r.Policies) == 0 {
		r.Policies = []string{"HI"}
	}
	if len(r.Thresholds) == 0 {
		r.Thresholds = []int{100}
	}
	if len(r.Latencies) == 0 {
		r.Latencies = []int{100}
	}
	// Multiply the axis lengths (each >= 1 here) without overflowing:
	// points*axis > maxSweepPoints exactly when points > maxSweepPoints/axis.
	points := 1
	for _, axis := range []int{len(r.Workloads), len(r.Policies), len(r.Thresholds), len(r.Latencies)} {
		if points > maxSweepPoints/axis {
			return r, fmt.Errorf("sweep: grid of %d workloads × %d policies × %d thresholds × %d latencies exceeds %d points",
				len(r.Workloads), len(r.Policies), len(r.Thresholds), len(r.Latencies), maxSweepPoints)
		}
		points *= axis
	}
	for _, n := range r.Thresholds {
		if n < 0 {
			return r, fmt.Errorf("sweep: thresholds must be >= 0 (got %d)", n)
		}
	}
	for _, l := range r.Latencies {
		if l < 0 {
			return r, fmt.Errorf("sweep: latencies must be >= 0 (got %d)", l)
		}
	}
	if r.WarmupInstrs == nil {
		w := uint64(1_000_000)
		r.WarmupInstrs = &w
	}
	if r.MeasureInstrs == nil {
		m := uint64(1_000_000)
		r.MeasureInstrs = &m
	}
	if *r.MeasureInstrs == 0 {
		return r, fmt.Errorf("sweep: measure_instrs must be positive")
	}
	if r.Seed == nil {
		s := uint64(1)
		r.Seed = &s
	}
	switch r.Mode {
	case "", "detailed", "sampled":
	default:
		return r, fmt.Errorf("sweep: unknown mode %q (detailed, sampled)", r.Mode)
	}
	if r.Replicas < 0 || r.Replicas > sim.MaxReplicas {
		return r, fmt.Errorf("sweep: replicas %d outside [0, %d]", r.Replicas, sim.MaxReplicas)
	}
	if r.Replicas > 1 && r.Mode != "sampled" {
		return r, fmt.Errorf("sweep: replicas %d requires mode \"sampled\"", r.Replicas)
	}
	if r.Normalize == nil {
		t := true
		r.Normalize = &t
	}
	if r.Concurrency == 0 {
		r.Concurrency = DefaultSweepConcurrency
	}
	if r.Concurrency < 1 {
		return r, fmt.Errorf("sweep: concurrency must be >= 1 (got %d)", r.Concurrency)
	}
	return r, nil
}

// Point is one grid cell. Baseline points (normalization prep) carry
// Index -1 and are not streamed.
type Point struct {
	Index     int
	Workload  string
	Policy    string
	Threshold int
	Latency   int
	OSCores   int // the K axis's value; 0 without one
}

// Expand validates r, fills its defaults and returns the defaulted
// request with its grid in nesting order: workloads × policies ×
// thresholds × latencies × OS cores. The fleet's coordinator and
// cmd/sweep both expand a grid through it, so one grid names the same
// points offline and on the fleet, and both refuse a grid with a point
// whose spec builds no config, such as an unknown workload or policy,
// before anything runs.
func (r SweepRequest) Expand() (SweepRequest, []Point, error) {
	r, err := r.withDefaults()
	if err != nil {
		return r, nil, err
	}
	ks := r.OSCores
	if len(ks) == 0 {
		ks = []int{0}
	}
	var out []Point
	for _, wl := range r.Workloads {
		for _, pol := range r.Policies {
			for _, n := range r.Thresholds {
				for _, lat := range r.Latencies {
					for _, k := range ks {
						out = append(out, Point{
							Index:     len(out),
							Workload:  wl,
							Policy:    pol,
							Threshold: n,
							Latency:   lat,
							OSCores:   k,
						})
					}
				}
			}
		}
	}
	for _, p := range out {
		if _, err := r.PointSpec(p).Config(); err != nil {
			return r, nil, fmt.Errorf("sweep: %w", err)
		}
	}
	return r, out, nil
}

// BaselinePoint is workload wl's normalization point: the
// never-off-loading baseline that normalized throughput divides by.
func BaselinePoint(wl string) Point {
	return Point{
		Index:    -1,
		Workload: wl,
		Policy:   "baseline",
		// Threshold/Latency are irrelevant to a never-off-loading
		// baseline but keep the grid defaults for a stable key.
		Threshold: 1000,
		Latency:   100,
	}
}

// PointSpec shapes one point of the defaulted request r into the
// ordinary job spec, so a sweep point is indistinguishable from a
// directly submitted job: same canonical key, same cache, same metrics.
func (r SweepRequest) PointSpec(p Point) sim.Spec {
	n := p.Threshold
	lat := p.Latency
	spec := sim.Spec{
		Workload:      p.Workload,
		Policy:        p.Policy,
		Threshold:     &n,
		LatencyCycles: &lat,
		WarmupInstrs:  r.WarmupInstrs,
		MeasureInstrs: r.MeasureInstrs,
		Seed:          r.Seed,
		Mode:          r.Mode,
		OSCores:       p.OSCores,
	}
	if r.Mode == "sampled" && r.Replicas > 0 {
		spec.Replicas = r.Replicas
	}
	return spec
}

// Row is one sweep point's export row.
type Row struct {
	Workload   string  `json:"workload"`
	Policy     string  `json:"policy"`
	Threshold  int     `json:"threshold"`
	OneWay     int     `json:"one_way_latency"`
	Throughput float64 `json:"throughput"`
	Normalized float64 `json:"normalized"`
	OffloadPct float64 `json:"offload_pct"`
	OSUtilPct  float64 `json:"os_util_pct"`
	UserL2Hit  float64 `json:"user_l2_hit"`
	OSL2Hit    float64 `json:"os_l2_hit"`
	C2C        uint64  `json:"c2c_transfers"`
	QueueMean  float64 `json:"queue_mean_cyc"`
	OSCores    int     `json:"os_cores,omitempty"` // the point's K; 0 on the wire
}

// buildRow shapes a simulation result into the export row. baseline is
// the matching workload's baseline throughput for normalization; pass 0
// to leave Normalized at 0 (normalization disabled).
func buildRow(p Point, res sim.Result, baseline float64) Row {
	row := Row{
		Workload:   p.Workload,
		Policy:     res.Policy,
		Threshold:  p.Threshold,
		OneWay:     p.Latency,
		Throughput: res.Throughput,
		OffloadPct: 100 * res.OffloadRate,
		OSUtilPct:  100 * res.OSCoreUtilization,
		UserL2Hit:  res.UserL2HitRate,
		OSL2Hit:    res.OSL2HitRate,
		C2C:        res.C2CTransfers,
		QueueMean:  res.MeanQueueDelay,
		OSCores:    p.OSCores,
	}
	if baseline > 0 {
		row.Normalized = res.Throughput / baseline
	}
	return row
}

// PointResult is one streamed NDJSON line of POST /v1/sweeps: the grid
// coordinates, a terminal status, and the export row on success. Lines
// are emitted in index order and their bytes are deterministic, so two
// sweeps of the same grid stream identical point lines no matter which
// replicas did the computing.
type PointResult struct {
	Index     int    `json:"index"`
	Workload  string `json:"workload"`
	Policy    string `json:"policy"`
	Threshold int    `json:"threshold"`
	OneWay    int    `json:"one_way_latency"`
	Status    string `json:"status"` // "done" or "failed"
	Error     string `json:"error,omitempty"`
	Row       *Row   `json:"row,omitempty"`
}

// Progress is GET /v1/sweeps/{id}: a sweep's live point accounting.
type Progress struct {
	ID      string `json:"id"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Running int    `json:"running"`
	Pending int    `json:"pending"`
	// Complete is true once every point reached a terminal state.
	Complete bool `json:"complete"`
}

// RunPointFunc executes one grid point and returns the result document
// bytes (a marshaled sim.Result). The server's builds the job spec,
// computes the canonical key, routes to the ring owner, and waits for
// completion; cmd/sweep's simulates the point in process.
type RunPointFunc func(ctx context.Context, req SweepRequest, p Point) ([]byte, error)

// Coordinator decomposes sweep requests and drives their points
// through RunPoint with bounded concurrency.
type Coordinator struct {
	RunPoint RunPointFunc
}

// Sweep is one in-flight or finished sweep.
type Sweep struct {
	ID  string
	Req SweepRequest

	points []Point

	mu      sync.Mutex
	results []*PointResult // nil until the point is terminal
	running int
	done    int
	failed  int

	ready    []chan struct{} // closed when results[i] is set
	finished chan struct{}   // closed when every point is terminal
}

// Start validates req, expands its grid and launches execution on ctx
// (which should outlive the submitting request: a sweep keeps running
// if the streaming client disconnects — its results land in the fleet
// cache either way).
func (c *Coordinator) Start(ctx context.Context, id string, req SweepRequest) (*Sweep, error) {
	req, points, err := req.Expand()
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		ID:       id,
		Req:      req,
		points:   points,
		finished: make(chan struct{}),
	}
	s.results = make([]*PointResult, len(s.points))
	s.ready = make([]chan struct{}, len(s.points))
	for i := range s.ready {
		s.ready[i] = make(chan struct{})
	}
	go s.run(ctx, c.RunPoint)
	return s, nil
}

// run issues the grid in index order with at most Req.Concurrency
// simulations in flight. When normalizing, each distinct workload's
// baseline is issued just before that workload's first grid point, and
// a point's row is built once both the point and that baseline have
// finished, so a workload's rows stream without waiting for the
// baselines of the workloads after it. Once a baseline is known to have
// failed, no further point of its workload is issued; every point of
// that workload fails with the baseline's error.
func (s *Sweep) run(ctx context.Context, runPoint RunPointFunc) {
	defer close(s.finished)

	sem := make(chan struct{}, s.Req.Concurrency)
	var wg sync.WaitGroup
	// start runs f on a new goroutine and returns once f has begun. Go's
	// scheduler runs the goroutine started last ahead of earlier ones, so
	// without the wait a batch of free slots would reach the fleet out of
	// issue order at GOMAXPROCS=1; with it, f runs until it blocks in
	// RunPoint before the next issue.
	start := func(f func()) {
		begun := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(begun)
			f()
		}()
		<-begun
	}
	// Baselines are computed through the same fleet path as any point,
	// so repeats across sweeps hit the cache.
	baselines := make(map[string]*baseline, len(s.Req.Workloads))
	for _, p := range s.points {
		var b *baseline
		if *s.Req.Normalize {
			if b = baselines[p.Workload]; b == nil {
				b = &baseline{done: make(chan struct{})}
				baselines[p.Workload] = b
				sem <- struct{}{}
				start(func() {
					res, err := s.execPoint(ctx, runPoint, BaselinePoint(p.Workload))
					if err != nil {
						b.err = fmt.Errorf("baseline for %s: %v", p.Workload, err)
					}
					b.throughput = res.Throughput
					close(b.done)
					<-sem
				})
			}
		}
		sem <- struct{}{}
		if err := b.failed(); err != nil {
			<-sem
			s.finishPoint(p, nil, err, false)
			continue
		}
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		start(func() {
			res, err := s.execPoint(ctx, runPoint, p)
			<-sem
			var tput float64
			if b != nil {
				<-b.done
				if b.err != nil {
					err = b.err
				}
				tput = b.throughput
			}
			if err != nil {
				s.finishPoint(p, nil, err, true)
				return
			}
			row := buildRow(p, res, tput)
			s.finishPoint(p, &row, nil, true)
		})
	}
	wg.Wait()
}

// baseline is one workload's normalization run, shared by every grid
// point of that workload.
type baseline struct {
	done       chan struct{} // closed once throughput and err are set
	throughput float64
	err        error // the error the workload's points fail with
}

// failed returns b's error once b has finished and failed; nil while b
// runs, after it succeeded, or for no baseline at all.
func (b *baseline) failed() error {
	if b == nil {
		return nil
	}
	select {
	case <-b.done:
		return b.err
	default:
		return nil
	}
}

// execPoint runs one point and decodes its result document.
func (s *Sweep) execPoint(ctx context.Context, runPoint RunPointFunc, p Point) (sim.Result, error) {
	b, err := runPoint(ctx, s.Req, p)
	if err != nil {
		return sim.Result{}, err
	}
	var res sim.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return sim.Result{}, fmt.Errorf("decoding result for point %d: %v", p.Index, err)
	}
	return res, nil
}

// finishPoint records a terminal state for grid point p and wakes its
// streamers. ran says whether p was issued, and so counted as running.
func (s *Sweep) finishPoint(p Point, row *Row, err error, ran bool) {
	pr := &PointResult{
		Index:     p.Index,
		Workload:  p.Workload,
		Policy:    p.Policy,
		Threshold: p.Threshold,
		OneWay:    p.Latency,
	}
	if err != nil {
		pr.Status = "failed"
		pr.Error = err.Error()
	} else {
		pr.Status = "done"
		pr.Row = row
		// The row's Policy field uses the engine's canonical spelling;
		// mirror it in the coordinates for consistency with cmd/sweep.
		pr.Policy = row.Policy
	}
	s.mu.Lock()
	s.results[p.Index] = pr
	if ran {
		s.running--
	}
	if err != nil {
		s.failed++
	} else {
		s.done++
	}
	s.mu.Unlock()
	close(s.ready[p.Index])
}

// Total returns the grid size.
func (s *Sweep) Total() int { return len(s.points) }

// Progress snapshots the sweep's accounting.
func (s *Sweep) Progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Progress{
		ID:       s.ID,
		Total:    len(s.points),
		Done:     s.done,
		Failed:   s.failed,
		Running:  s.running,
		Pending:  len(s.points) - s.done - s.failed - s.running,
		Complete: s.done+s.failed == len(s.points),
	}
}

// Stream delivers point results in index order, calling emit as each
// next-in-order point becomes terminal. It returns when all points
// have been emitted, ctx expires, or emit fails (client gone); the
// sweep itself keeps running regardless.
func (s *Sweep) Stream(ctx context.Context, emit func(*PointResult) error) error {
	for i := range s.points {
		select {
		case <-s.ready[i]:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.mu.Lock()
		pr := s.results[i]
		s.mu.Unlock()
		if err := emit(pr); err != nil {
			return err
		}
	}
	return nil
}

// Wait blocks until every point is terminal or ctx expires.
func (s *Sweep) Wait(ctx context.Context) error {
	select {
	case <-s.finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
