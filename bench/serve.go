package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"offloadsim/internal/server"
	"offloadsim/internal/sim"
)

// schedule is how serve-open spends its window. First a ladder of
// open-loop steps, a twentieth of the window each, offers seeded Poisson
// arrivals from one generator submitting round-robin to the fleet's
// replicas: the low and high rates, then an overload rate about two and a
// half times what the fleet's one CPU serves on a 2-vCPU Xeon VM, so the
// latency-limited capacity lies between the steps on a faster host too.
// The rest of the window is split into rounds of a stretch
// with one request in flight, which times the serving path on an idle
// fleet, and a stretch with the fleet saturated; spreading both over the
// whole run keeps a few slow seconds of the host from deciding either.
//
// The end-to-end latency comes from the one-in-flight stretches, not the
// low step. Both workers share the CPU, and a miss that overlaps another
// takes up to twice as long: at 12 jobs/s about half the misses overlap,
// and over ten runs the open-loop median spread 33% between its quartiles
// where the one-in-flight median spread 2-5%.
type schedule struct {
	low, high, over float64 // open-loop ladder, requests per second
	rounds          int
}

var serveSchedule = schedule{low: 12, high: 24, over: 72, rounds: 4}

// openStep is one open-loop step: its number k seeds its arrivals and
// numbers its requests.
type openStep struct {
	k    int
	rate float64
	dur  time.Duration
}

// openSteps lists the ladder for a window d, in the order it runs.
func (sc schedule) openSteps(d time.Duration) []openStep {
	return []openStep{{0, sc.low, d / 20}, {1, sc.high, d / 20}, {2, sc.over, d / 20}}
}

// stretches returns the lengths of each round's one-in-flight and
// saturation stretches, a third and two thirds of the round: the median
// of a few hundred one-in-flight requests barely moves between runs,
// while capacity needs the longer stretch. Together the rounds take the
// seventeen twentieths of the window the ladder leaves.
func (sc schedule) stretches(d time.Duration) (idle, sat time.Duration) {
	round := d * 17 / 20 / time.Duration(sc.rounds)
	return round / 3, round - round/3
}

const (
	// latencyLimitMS is the p90 limit of the interpolated capacity.
	latencyLimitMS = 250
	// refusedMS stands in for the latency of a refused request: it misses
	// any limit.
	refusedMS = 1e9
	// hotJobs is the size of the hot set set-up loads into the caches;
	// one request in hotEvery re-submits one of them.
	hotJobs  = 8
	hotEvery = 4
)

var (
	serveWorkloads  = []string{"apache", "specjbb", "derby"}
	serveThresholds = []int{100, 1000}
)

// jobSpec is a detailed 1M-instruction job (the server's default
// budgets) under the hardware predictor: shape k picks the workload and
// threshold, and seed is the job's own.
func jobSpec(k int, seed uint64) server.JobSpec {
	n := serveThresholds[k/len(serveWorkloads)%len(serveThresholds)]
	return server.JobSpec{
		Workload:  serveWorkloads[k%len(serveWorkloads)],
		Policy:    "HI",
		Threshold: &n,
		Seed:      &seed,
	}
}

// hotSpec is hot-set job j.
func hotSpec(seed uint64, j int) server.JobSpec {
	return jobSpec(j, mix(seed, streamHot, uint64(j)))
}

// serveRequest is request j of step k: a hot-set index, or -1 and a fresh
// job. The mix is stratified rather than drawn: every hotEvery-th request
// is a hit and fresh jobs cycle through the six shapes, so every stretch
// of a run offers the same mix and only job seeds and arrival times vary
// with the seed. Each step numbers its own requests, so what an open-loop
// step sends depends only on the seed, whatever ran before it.
func serveRequest(seed uint64, k, j int) (int, server.JobSpec) {
	if j%hotEvery == hotEvery-1 {
		return (k + j/hotEvery) % hotJobs, server.JobSpec{}
	}
	return -1, jobSpec(k+j-j/hotEvery, mix(seed, streamMiss, uint64(k)<<32|uint64(j)))
}

// arrivals returns the due offsets of a Poisson stream at rate per second
// over dur, seeded per ladder step.
func arrivals(seed uint64, step int, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(int64(mix(seed, streamArrival, uint64(step)))))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// hotJob is a hot-set entry with the result bytes the library computed
// for it; every hit must return exactly these bytes.
type hotJob struct {
	body []byte
	cfg  sim.Config
	key  string
	raw  []byte
}

type serveLoad struct {
	e     *env
	f     *fleet
	hot   []hotJob
	sched schedule

	mu   sync.Mutex // guards ph, refs and step stats while a collector runs
	refs []traceRef
}

func setupServe(e *env) (instance, error) {
	if err := warmUp(e); err != nil {
		return nil, err
	}
	f, err := startFleet(e.rec != nil)
	if err != nil {
		return nil, err
	}
	s := &serveLoad{e: e, f: f, sched: serveSchedule}
	if err := s.preload(); err != nil {
		f.close()
		return nil, err
	}
	return s, nil
}

// preload computes every hot-set job with the library and loads it into
// the fleet through its front door; the fleet's bytes must match.
func (s *serveLoad) preload() error {
	for j := 0; j < hotJobs; j++ {
		spec := hotSpec(s.e.seed, j)
		cfg, err := spec.Config()
		if err != nil {
			return err
		}
		raw, err := simulate(s.e.rec, fmt.Sprintf("hot-%d", j), nil, cfg)
		if err != nil {
			return err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		key, err := jobKey(cfg)
		if err != nil {
			return err
		}
		st, err := s.f.submit(s.f.urls[0], body)
		if err != nil {
			return fmt.Errorf("preloading hot job %d: %w", j, err)
		}
		if err := s.f.wait(st.Replica, st.ID); err != nil {
			return fmt.Errorf("preloading hot job %d: %w", j, err)
		}
		got, err := s.f.get(st.Replica + "/v1/results/" + st.ID)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, raw) {
			return fmt.Errorf("hot job %d: fleet result differs from the library's", j)
		}
		s.hot = append(s.hot, hotJob{body: body, cfg: cfg, key: key, raw: raw})
	}
	return nil
}

// stepStat is one open-loop step's (or closed stretch's) outcome.
type stepStat struct {
	rate float64
	// keep marks requests that belong to the digest set: the open-loop
	// steps', whose schedule depends only on the seed.
	keep        bool
	latMS       []float64 // refused and failed requests count as refusedMS
	sent        int
	refused     int
	outstanding int       // requests unanswered when the step's last one was due
	begin       time.Time // when the step's first request was sent
	// done lists when each request's result was checked and how many
	// instructions it simulated (0 for a cache hit).
	done []completion
}

type completion struct {
	at     time.Time
	instrs float64
}

// score is how far a step is from its limits: above 1 the p90 latency
// exceeds the limit or the backlog outgrew what that latency allows.
func (st *stepStat) score() float64 {
	p90 := quantile(st.latMS, 0.9)
	backlog := float64(st.outstanding) / (st.rate*latencyLimitMS/1000 + 2)
	return max(p90/latencyLimitMS, backlog)
}

// capacity is the highest offered rate within the limits, interpolated
// linearly in score between the last step that passes and the first that
// fails (from rate 0 when the first step fails). A ladder whose top step
// passes has not found capacity; that is an error, not a clipped value.
func capacity(steps []*stepStat) (float64, error) {
	prevRate, prevScore := 0.0, 0.0
	for _, st := range steps {
		sc := st.score()
		if sc > 1 {
			return prevRate + (st.rate-prevRate)*(1-prevScore)/(sc-prevScore), nil
		}
		prevRate, prevScore = st.rate, sc
	}
	return 0, errors.New("every ladder step met the latency limit; capacity lies above the top rate")
}

// windows cuts [st.begin, end) into slices of width bin (a last partial
// slice is dropped) and counts the completions in each.
func (st *stepStat) windows(end time.Time, bin time.Duration) []window {
	var out []window
	for t := st.begin; !t.Add(bin).After(end); t = t.Add(bin) {
		w := window{start: t, end: t.Add(bin)}
		for _, c := range st.done {
			if !c.at.Before(w.start) && c.at.Before(w.end) {
				w.ops++
				w.instrs += c.instrs
			}
		}
		out = append(out, w)
	}
	return out
}

// saturationDepth is how many requests the capacity stretches keep in
// flight: four per worker, so with a quarter of them answered from the
// cache each worker still always has a job queued.
const saturationDepth = 4 * fleetReplicas

// idleSteps and saturationSteps number the requests of the one-in-flight
// and the saturation stretches, apart from the ladder's and each other's.
const (
	idleSteps       = 100
	saturationSteps = 200
)

func (s *serveLoad) measure(d time.Duration) (*phase, error) {
	ph := newPhase()
	before := s.f.counters()
	start := time.Now()
	var late []float64
	var ladder []*stepStat
	sent := 0
	for _, step := range s.sched.openSteps(d) {
		st, l := s.step(step.k, step.rate, step.dur, ph)
		late = append(late, l...)
		ladder = append(ladder, st)
		sent += st.sent
	}
	var windows []window
	idleDur, satDur := s.sched.stretches(d)
	for r := 0; r < s.sched.rounds; r++ {
		idle := s.closed(idleSteps+r, 1, idleDur, ph)
		ph.latMS = append(ph.latMS, idle.latMS...)
		sat := s.closed(saturationSteps+r, saturationDepth, satDur, ph)
		windows = append(windows, sat.windows(sat.begin.Add(satDur), satDur/2)...)
		sent += idle.sent + sat.sent
	}
	ph.wall = time.Since(start)
	ph.setRates(windows)
	limited, err := capacity(ladder)
	if err != nil {
		return nil, err
	}
	// Typical latency: the median request through the serving path of an
	// idle fleet, over every round.
	ph.latP50 = median(ph.latMS)
	ph.costBasis = ph.latP50
	high := ladder[1]
	ph.layer.set("serve.limit_capacity_per_s", limited)
	ph.layer.setP("serve.p50_ms.high", high.latMS, 0.5)
	ph.layer.setP("serve.p90_ms.high", high.latMS, 0.9)
	after := s.f.counters()
	hits := after.hits - before.hits
	ph.layer.set("server.hit_ratio", ratio(hits, hits+after.misses-before.misses))
	ph.layer.set("cluster.forward_ratio", ratio(after.forwarded-before.forwarded, float64(sent)))
	ph.layer.set("server.refused_frac.high", ratio(float64(high.refused), float64(high.sent)))
	ph.layer.setP("loadgen.late_p99_ms", late, 0.99)
	return ph, nil
}

// inflight is one request between submission and its checked result.
type inflight struct {
	name    string // step/index, for messages and trace IDs
	due     time.Time
	hot     int
	cfg     sim.Config
	key     string
	replica string // holds the job: the ring owner
	id      string
	cached  bool // answered from the cache, already finished
	root    *activeSpan
	err     error
}

// pipeline is the machinery behind one step: a collector goroutine that
// fetches and checks results, and one waiter goroutine per queued job
// blocking in Server.Wait. Only the generator and the collector issue
// HTTP requests.
type pipeline struct {
	s       *serveLoad
	k, n    int // step number and requests sent so far
	st      *stepStat
	ph      *phase
	done    chan *inflight
	checked chan struct{} // one token per collected request
	waiters sync.WaitGroup
	stopped chan struct{}
}

// newPipeline starts a collector for up to capacity requests in flight.
func (s *serveLoad) newPipeline(k int, st *stepStat, ph *phase, capacity int) *pipeline {
	p := &pipeline{
		s: s, k: k, st: st, ph: ph,
		done:    make(chan *inflight, capacity),
		checked: make(chan struct{}, capacity),
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(p.stopped)
		for r := range p.done {
			s.collect(r, st, ph)
			p.checked <- struct{}{}
		}
	}()
	return p
}

// submit sends the next request and hands it to the collector, directly
// when it is already answered or through a waiter when it is queued. It
// reports false for a refused request, which never reaches the collector.
func (p *pipeline) submit(due time.Time) bool {
	r := p.s.send(p.k, p.n, due)
	p.n++
	p.st.sent++
	switch {
	case isStatus(r.err, http.StatusTooManyRequests):
		p.st.refused++
		p.s.mu.Lock()
		p.ph.attempted++
		p.st.latMS = append(p.st.latMS, refusedMS)
		p.s.mu.Unlock()
		r.root.end()
		return false
	case r.err != nil, r.cached:
		p.done <- r
	default:
		p.waiters.Add(1)
		go func() {
			defer p.waiters.Done()
			sp := p.s.e.rec.begin(r.root.traceID(), r.root, "wait")
			r.err = p.s.f.wait(r.replica, r.id)
			sp.end()
			p.done <- r
		}()
	}
	return true
}

// drain waits until every submitted request has been collected.
func (p *pipeline) drain() {
	p.waiters.Wait()
	close(p.done)
	<-p.stopped
}

// step offers one ladder rate for dur on the seed's Poisson schedule.
func (s *serveLoad) step(k int, rate float64, dur time.Duration, ph *phase) (*stepStat, []float64) {
	st := &stepStat{rate: rate, keep: true}
	dues := arrivals(s.e.seed, k, rate, dur)
	p := s.newPipeline(k, st, ph, len(dues))
	late := make([]float64, 0, len(dues))
	st.begin = time.Now()
	for _, off := range dues {
		due := st.begin.Add(off)
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due).Microseconds())/1e3)
		p.submit(due)
	}
	st.outstanding = st.sent - st.refused - len(p.checked)
	p.drain()
	return st, late
}

// closed keeps depth requests in flight for dur: each checked result
// releases the next submission. Its requests are numbered as step k.
func (s *serveLoad) closed(k, depth int, dur time.Duration, ph *phase) *stepStat {
	st := &stepStat{}
	p := s.newPipeline(k, st, ph, depth)
	st.begin = time.Now()
	end := st.begin.Add(dur)
	inFlight := 0
	for {
		for inFlight < depth && time.Now().Before(end) {
			if p.submit(time.Now()) {
				inFlight++
			}
		}
		if inFlight == 0 {
			break
		}
		<-p.checked
		inFlight--
	}
	p.drain()
	return st
}

// send submits request j of step k, round-robin across the replicas.
func (s *serveLoad) send(k, j int, due time.Time) *inflight {
	hot, spec := serveRequest(s.e.seed, k, j)
	r := &inflight{name: fmt.Sprintf("%d/%d", k, j), due: due, hot: hot}
	r.root = s.e.rec.begin("req-"+r.name, nil, "request")
	var body []byte
	if hot >= 0 {
		h := s.hot[hot]
		body, r.cfg, r.key = h.body, h.cfg, h.key
	} else {
		cfg, err := spec.Config()
		if err == nil {
			r.key, err = jobKey(cfg)
		}
		if err == nil {
			body, err = json.Marshal(spec)
		}
		if err != nil {
			r.err = err
			return r
		}
		r.cfg = cfg
	}
	sp := s.e.rec.begin(r.root.traceID(), r.root, "http.submit")
	st, err := s.f.submit(s.f.urls[j%len(s.f.urls)], body)
	sp.end()
	if err != nil {
		r.err = err
		return r
	}
	r.replica, r.id, r.cached = st.Replica, st.ID, st.Cached
	s.mu.Lock()
	s.refs = append(s.refs, traceRef{st.Replica, st.ID})
	s.mu.Unlock()
	return r
}

// collect fetches and checks one finished request's result bytes and
// records its latency, from due time to checked result, in its step.
func (s *serveLoad) collect(r *inflight, st *stepStat, ph *phase) {
	defer r.root.end()
	err := r.err
	var raw []byte
	if err == nil {
		sp := s.e.rec.begin(r.root.traceID(), r.root, "http.result")
		raw, err = s.f.get(r.replica + "/v1/results/" + r.id)
		sp.end()
	}
	var res sim.Result
	var digest string
	if err == nil {
		sp := s.e.rec.begin(r.root.traceID(), r.root, "check")
		if r.hot >= 0 && !bytes.Equal(raw, s.hot[r.hot].raw) {
			err = fmt.Errorf("hit bytes differ from the hot-set result")
		}
		if err == nil {
			digest, err = s.e.digests.check(r.key, raw, s.e.required(st.keep))
		}
		if err == nil {
			res, err = checkResult(r.cfg, raw)
		}
		sp.end()
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ph.attempted++
	if err != nil {
		ph.fail(fmt.Errorf("request %s: %w", r.name, err))
		st.latMS = append(st.latMS, refusedMS)
		return
	}
	ph.ops++
	st.latMS = append(st.latMS, float64(now.Sub(r.due).Microseconds())/1e3)
	c := completion{at: now}
	if r.hot < 0 {
		c.instrs = float64(res.Instrs)
		ph.simulated = append(ph.simulated, res)
	}
	st.done = append(st.done, c)
	if st.keep {
		ph.digests[r.key] = digest
		ph.model = append(ph.model, res)
	}
}

func (s *serveLoad) finish(ph *phase) error {
	spans, err := s.f.spans(s.refs)
	if err != nil {
		return err
	}
	ph.fleetSpans = spans
	return nil
}

// modelShapes are the six fresh-job shapes.
func (s *serveLoad) modelShapes() ([]sim.Config, error) {
	var out []sim.Config
	for j := 0; j < len(serveWorkloads)*len(serveThresholds); j++ {
		cfg, err := hotSpec(s.e.seed, j).Config()
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

func (s *serveLoad) close() { s.f.close() }
