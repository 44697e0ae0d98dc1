package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"offloadsim/internal/cluster"
	"offloadsim/internal/server"
	"offloadsim/internal/sim"
	"offloadsim/internal/workloads"
)

// Sampled-sweep grid: every profile under HI, DI and SI; each sweep takes
// two of the four thresholds and one of the four latencies, so eight
// consecutive sweeps cover the full 4 x 4 grid and every sweep has the
// same shape (and so the same cost).
var (
	sweepThresholds = [][]int{{100, 500}, {1000, 2000}}
	sweepLatencies  = []int{50, 100, 500, 1000}
	sweepPolicies   = []string{"HI", "DI", "SI"}
)

const (
	sweepWarmup      = 1_000_000
	sweepMeasure     = 20_000_000
	sweepConcurrency = 4
)

// sweepRequest is sweep i of a run: its own seed, so no sweep reuses
// another's cached points, and normalization on, so each sweep also runs
// one baseline per profile.
func sweepRequest(seed uint64, i int) cluster.SweepRequest {
	warm, measure, s := uint64(sweepWarmup), uint64(sweepMeasure), mix(seed, streamSweep, uint64(i))
	return cluster.SweepRequest{
		Workloads:     workloads.Names(),
		Policies:      sweepPolicies,
		Thresholds:    sweepThresholds[i%len(sweepThresholds)],
		Latencies:     []int{sweepLatencies[(i/len(sweepThresholds))%len(sweepLatencies)]},
		WarmupInstrs:  &warm,
		MeasureInstrs: &measure,
		Seed:          &s,
		Mode:          "sampled",
		Concurrency:   sweepConcurrency,
	}
}

// pointConfig is the simulation one grid point (or, with policy
// "baseline", one normalization run) stands for: the job spec the fleet
// builds for it, spelled the way a client would submit it.
func pointConfig(req cluster.SweepRequest, workload, policy string, n, lat int) (sim.Config, error) {
	return server.JobSpec{
		Workload:      workload,
		Policy:        policy,
		Threshold:     &n,
		LatencyCycles: &lat,
		WarmupInstrs:  req.WarmupInstrs,
		MeasureInstrs: req.MeasureInstrs,
		Seed:          req.Seed,
		Mode:          req.Mode,
	}.Config()
}

// sweepLoad posts one sweep at a time to the fleet and reads each point
// as it streams back.
type sweepLoad struct {
	e *env
	f *fleet
	// request returns sweep i; the first digestSweeps always run.
	request      func(i int) cluster.SweepRequest
	digestSweeps int

	refs    []traceRef
	configs []sweptConfig
}

// sweptConfig is one simulation a sweep ran, kept for the traced run's
// result download.
type sweptConfig struct {
	cfg  sim.Config
	keep bool // part of the digest set
}

func setupSweep(e *env) (instance, error) {
	if err := warmUp(e); err != nil {
		return nil, err
	}
	f, err := startFleet(e.rec != nil)
	if err != nil {
		return nil, err
	}
	return &sweepLoad{
		e: e, f: f,
		request:      func(i int) cluster.SweepRequest { return sweepRequest(e.seed, i) },
		digestSweeps: 2,
	}, nil
}

func (s *sweepLoad) measure(d time.Duration) (*phase, error) {
	ph := newPhase()
	before := s.f.counters()
	var windows []window
	start := time.Now()
	for i := 0; i < s.digestSweeps || time.Since(start) < d; i++ {
		w, err := s.sweep(i, ph)
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
	}
	ph.wall = time.Since(start)
	ph.setRates(windows)
	ph.latP50 = median(ph.latMS)
	ph.costBasis = ph.wall.Seconds() / float64(max(ph.ops, 1))
	after := s.f.counters()
	ph.layer.set("server.hit_ratio", ratio(after.hits-before.hits, after.hits-before.hits+after.misses-before.misses))
	return ph, nil
}

// pointLine is one streamed grid point; the row stays raw so its exact
// bytes are what the digest covers.
type pointLine struct {
	Index     int             `json:"index"`
	Workload  string          `json:"workload"`
	Policy    string          `json:"policy"`
	Threshold int             `json:"threshold"`
	OneWay    int             `json:"one_way_latency"`
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	Row       json.RawMessage `json:"row"`
}

// sweep runs sweep i to completion. Point failures count against the
// phase; an error return means the fleet itself is unusable.
func (s *sweepLoad) sweep(i int, ph *phase) (window, error) {
	req := s.request(i)
	body, err := json.Marshal(req)
	if err != nil {
		return window{}, err
	}
	url := s.f.urls[i%len(s.f.urls)]
	traceID := fmt.Sprintf("sweep-%d", i)
	root := s.e.rec.begin(traceID, nil, "sweep")
	defer root.end()
	w := window{start: time.Now()}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return w, err
	}
	resp, err := s.f.client.Do(hr)
	if err != nil {
		return w, fmt.Errorf("posting sweep: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return w, fmt.Errorf("posting sweep: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var header struct {
		SweepID string `json:"sweep_id"`
		Points  int    `json:"points"`
	}
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &header) != nil || header.Points == 0 {
		return w, fmt.Errorf("sweep %d: bad stream header", i)
	}
	s.refs = append(s.refs, traceRef{url, header.SweepID})
	keep := i < s.digestSweeps
	for n := 0; n < header.Points; n++ {
		ph.attempted++
		if !sc.Scan() {
			ph.fail(fmt.Errorf("sweep %d: stream ended after %d of %d points", i, n, header.Points))
			w.end = time.Now()
			return w, nil
		}
		lat := float64(time.Since(w.start).Microseconds()) / 1e3
		var pl pointLine
		if err := json.Unmarshal(sc.Bytes(), &pl); err != nil {
			ph.fail(fmt.Errorf("sweep %d point %d: %w", i, n, err))
			continue
		}
		if err := s.checkPoint(req, pl, ph, keep); err != nil {
			ph.fail(fmt.Errorf("sweep %d point %d: %w", i, pl.Index, err))
			continue
		}
		ph.ops++
		ph.latMS = append(ph.latMS, lat)
		w.ops++
		w.instrs += sweepMeasure
	}
	var prog cluster.Progress
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &prog) != nil || !prog.Complete || prog.Failed != 0 {
		ph.fail(fmt.Errorf("sweep %d: incomplete progress line %q", i, sc.Text()))
	}
	w.end = time.Now()
	for _, wl := range req.Workloads {
		cfg, err := pointConfig(req, wl, "baseline", 1000, 100)
		if err != nil {
			return w, err
		}
		s.configs = append(s.configs, sweptConfig{cfg: cfg})
		w.instrs += sweepMeasure
	}
	return w, nil
}

// checkPoint validates one streamed row and checks its bytes against the
// digest table.
func (s *sweepLoad) checkPoint(req cluster.SweepRequest, pl pointLine, ph *phase, keep bool) error {
	if pl.Status != "done" {
		return fmt.Errorf("status %s: %s", pl.Status, pl.Error)
	}
	var row cluster.Row
	if err := json.Unmarshal(pl.Row, &row); err != nil {
		return fmt.Errorf("decoding row: %w", err)
	}
	if row.Workload != pl.Workload || row.Policy != pl.Policy || row.Threshold != pl.Threshold || row.OneWay != pl.OneWay {
		return fmt.Errorf("row %+v does not match its grid point", row)
	}
	if !(row.Throughput > 0) || !(row.Normalized > 0) || row.OffloadPct < 0 || row.OffloadPct > 100 {
		return fmt.Errorf("row out of range: %+v", row)
	}
	cfg, err := pointConfig(req, pl.Workload, pl.Policy, pl.Threshold, pl.OneWay)
	if err != nil {
		return err
	}
	key, err := jobKey(cfg)
	if err != nil {
		return err
	}
	key = "row:" + key
	digest, err := s.e.digests.check(key, pl.Row, s.e.required(keep))
	if err != nil {
		return err
	}
	if keep {
		ph.digests[key] = digest
	}
	s.configs = append(s.configs, sweptConfig{cfg: cfg, keep: keep})
	return nil
}

// finish downloads the sweeps' service traces and the result document of
// every point and baseline they ran, from the fleet's caches.
func (s *sweepLoad) finish(ph *phase) error {
	spans, err := s.f.spans(s.refs)
	if err != nil {
		return err
	}
	ph.fleetSpans = spans
	for _, sc := range s.configs {
		key, err := sim.CanonicalKey(sc.cfg)
		if err != nil {
			return err
		}
		raw, err := s.f.cachedResult(key)
		if err != nil {
			return err
		}
		res, err := checkResult(sc.cfg, raw)
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.simulated = append(ph.simulated, res)
		if sc.keep {
			ph.model = append(ph.model, res)
		}
	}
	return nil
}

// modelShapes are detailed twins of the first sweep's apache points: the
// sampled engine keeps no event trace.
func (s *sweepLoad) modelShapes() ([]sim.Config, error) {
	req := s.request(0)
	var out []sim.Config
	for _, pol := range sweepPolicies {
		cfg, err := pointConfig(req, "apache", pol, req.Thresholds[0], req.Latencies[0])
		if err != nil {
			return nil, err
		}
		cfg.Sampling = sim.Sampling{}
		cfg.MeasureInstrs = 1_000_000
		out = append(out, cfg)
	}
	return out, nil
}

func (s *sweepLoad) close() { s.f.close() }
