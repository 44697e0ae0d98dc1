// Command loadtest drives a running offsimd — one replica or a whole
// fleet — and reports latency percentiles, the fleet-wide cache-hit
// ratio and the work-steal rate. It doubles as the serving-path SLO
// gate: -p95-max and -hit-min turn the report into a non-zero exit
// when the daemon misses its targets.
//
// Two arrival disciplines:
//
//	-arrival closed  (default) K submitters in a closed loop: each waits
//	                 for its job to finish before submitting the next.
//	                 -jobs bounds the total.
//	-arrival open    Poisson-less fixed-rate arrivals: -rate jobs/s for
//	                 -duration, regardless of completions (finds the
//	                 saturation knee).
//
// Examples:
//
//	go run ./cmd/offsimd -addr :8080 &
//	go run ./examples/loadtest -addrs http://localhost:8080 -k 16 -jobs 96
//
//	# 3-replica fleet with SLO gates:
//	go run ./examples/loadtest \
//	    -addrs http://localhost:8080,http://localhost:8081,http://localhost:8082 \
//	    -jobs 120 -p95-max 5s -hit-min 0.5
//
//	# multi-OS-core cluster scenario (docs/OSCORES.md):
//	go run ./examples/loadtest -addrs http://localhost:8080 \
//	    -os-cores 2 -asymmetry 1,0.5 -async -jobs 48
//
// Specs are drawn from a small sweep grid with deliberate repeats, so a
// healthy run shows a rising cache-hit ratio as the grid fills in. In a
// fleet, submissions round-robin across replicas and each job is polled
// at the replica the status document names — the one that owns it.
//
// -slo-report writes the same numbers as machine-readable JSON, plus a
// per-stage latency breakdown (admission, queue_wait, sim_execute, ...)
// scraped from a sample of the daemon's service traces via
// /v1/debug/traces/{id} — empty when the daemon runs with -tracing=false
// (docs/OBSERVABILITY.md).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"offloadsim"
)

type jobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Cached  bool   `json:"cached"`
	Stolen  bool   `json:"stolen"`
	Replica string `json:"replica"`
	Error   string `json:"error,omitempty"`
}

type sample struct {
	id      string
	replica string
	latency time.Duration
	cached  bool
	stolen  bool
}

// span is the slice of the /v1/debug/traces span document the stage
// breakdown needs; kept local so the loadtest reads like an external
// client (docs/OBSERVABILITY.md).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// stageStats aggregates one span name's durations across the sampled
// traces.
type stageStats struct {
	Spans  int     `json:"spans"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// sloReport is the machine-readable run summary -slo-report writes: the
// same numbers the human report prints, plus the per-stage latency
// breakdown scraped from the daemon's service traces.
type sloReport struct {
	Arrival       string  `json:"arrival"`
	Replicas      int     `json:"replicas"`
	Completed     int     `json:"completed"`
	Submitted     int     `json:"submitted"`
	WallMS        float64 `json:"wall_ms"`
	JobsPerSecond float64 `json:"jobs_per_second"`
	P50MS         float64 `json:"latency_p50_ms"`
	P95MS         float64 `json:"latency_p95_ms"`
	P99MS         float64 `json:"latency_p99_ms"`
	FleetHitRatio float64 `json:"fleet_cache_hit_ratio"`
	StealRate     float64 `json:"fleet_steal_rate"`
	Rejected429   int64   `json:"rejected_429"`
	Failed        int64   `json:"failed"`
	// SLO echoes the gates and whether each one failed; Pass is the
	// process exit contract (false exits non-zero).
	SLO struct {
		P95MaxMS       float64 `json:"p95_max_ms,omitempty"`
		P95Violated    bool    `json:"p95_violated"`
		HitMin         float64 `json:"hit_min,omitempty"`
		HitMinViolated bool    `json:"hit_min_violated"`
		Pass           bool    `json:"pass"`
	} `json:"slo"`
	// TracedJobs counts the completed jobs whose service trace was
	// scraped for the stage breakdown (0 when the daemon runs with
	// tracing disabled).
	TracedJobs int                   `json:"traced_jobs"`
	Stages     map[string]stageStats `json:"stage_latency_ms,omitempty"`
}

// fleetCounters are the /metrics series the report aggregates across
// replicas (deltas over the run).
type fleetCounters struct {
	submitted float64
	hits      float64
	peerHits  float64
	stolen    float64
}

func main() {
	var (
		addrsFlag = flag.String("addrs", "http://localhost:8080", "comma-separated offsimd base URLs (one per replica)")
		arrival   = flag.String("arrival", "closed", "arrival discipline: closed or open")
		k         = flag.Int("k", 16, "concurrent submitters (closed arrivals)")
		jobs      = flag.Int("jobs", 96, "total submissions (closed arrivals)")
		rate      = flag.Float64("rate", 20, "arrivals per second (open arrivals)")
		duration  = flag.Duration("duration", 10*time.Second, "run length (open arrivals)")
		measure   = flag.Uint64("measure", 200_000, "measured instructions per job")
		seeds     = flag.Uint64("seeds", 4, "distinct seeds per grid point (controls repeat rate)")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-job completion deadline")
		p95Max    = flag.Duration("p95-max", 0, "SLO: exit non-zero if p95 latency exceeds this (0 disables)")
		hitMin    = flag.Float64("hit-min", -1, "SLO: exit non-zero if the fleet cache-hit ratio falls below this fraction (<0 disables)")
		osCores   = flag.Int("os-cores", 0, "run the grid against a K-core off-load cluster (0 = classic single OS core; docs/OSCORES.md)")
		affinity  = flag.String("affinity", "", "syscall-class affinity map for the cluster scenario")
		asymmetry = flag.String("asymmetry", "", "per-OS-core speed factors for the cluster scenario")
		async     = flag.Bool("async", false, "fire-and-forget off-load for side-effect-only syscall classes")
		sloOut    = flag.String("slo-report", "", "write a machine-readable JSON report to this path (\"-\" = stdout), with a per-stage latency breakdown scraped from service traces")
	)
	flag.Parse()
	if *k < 1 || *jobs < 1 || *seeds < 1 || *measure == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -k, -jobs, -seeds must be >= 1 and -measure positive")
		os.Exit(2)
	}
	if *arrival != "closed" && *arrival != "open" {
		fmt.Fprintf(os.Stderr, "loadtest: -arrival must be \"closed\" or \"open\" (got %q)\n", *arrival)
		os.Exit(2)
	}
	if *arrival == "open" && (*rate <= 0 || *duration <= 0) {
		fmt.Fprintln(os.Stderr, "loadtest: open arrivals need -rate > 0 and -duration > 0")
		os.Exit(2)
	}
	var addrs []string
	for _, a := range strings.Split(*addrsFlag, ",") {
		if a = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(a), "/")); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: -addrs must name at least one replica")
		os.Exit(2)
	}

	// A small grid with repeats: workloads x thresholds x seeds, walked
	// by job index so runs are reproducible.
	type gridPoint struct {
		workload  string
		threshold int
		seed      uint64
	}
	var grid []gridPoint
	for _, wl := range []string{"apache", "specjbb", "derby"} {
		for _, thr := range []int{100, 1000} {
			for s := uint64(1); s <= *seeds; s++ {
				grid = append(grid, gridPoint{wl, thr, s})
			}
		}
	}
	latency, warmup := 100, uint64(0)
	specFor := func(i int) offloadsim.Spec {
		g := grid[i%len(grid)]
		spec := offloadsim.Spec{
			Workload:      g.workload,
			Policy:        "HI",
			Threshold:     &g.threshold,
			LatencyCycles: &latency,
			WarmupInstrs:  &warmup,
			MeasureInstrs: measure,
			Seed:          &g.seed,
		}
		if *osCores > 0 || *affinity != "" || *asymmetry != "" || *async {
			// Cluster scenario: every grid point off-loads into a K-core
			// OS cluster, exercising the daemon's os_cores job surface and
			// the per-class queue-depth gauge under load.
			spec.Cores = 2
			spec.OSCores = *osCores
			spec.Affinity = *affinity
			spec.Asymmetry = *asymmetry
			spec.Async = *async
		}
		return spec
	}

	client := &http.Client{Timeout: 30 * time.Second}
	before := scrapeFleet(client, addrs)

	var (
		mu       sync.Mutex
		samples  []sample
		rejected atomic.Int64
		failed   atomic.Int64
	)
	runJob := func(i int) {
		s, err := runOne(client, addrs[i%len(addrs)], specFor(i), *timeout, &rejected)
		if err != nil {
			failed.Add(1)
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			return
		}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	start := time.Now()
	var total int
	switch *arrival {
	case "closed":
		total = *jobs
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < *k; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					runJob(i)
				}
			}()
		}
		for i := 0; i < *jobs; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	case "open":
		// Fixed-rate arrivals: fire every 1/rate regardless of how many
		// jobs are still in flight, for -duration.
		interval := time.Duration(float64(time.Second) / *rate)
		var wg sync.WaitGroup
		tick := time.NewTicker(interval)
		stop := time.After(*duration)
	arrivals:
		for i := 0; ; i++ {
			select {
			case <-stop:
				break arrivals
			case <-tick.C:
				total++
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					runJob(i)
				}(i)
			}
		}
		tick.Stop()
		wg.Wait()
	}
	wall := time.Since(start)
	after := scrapeFleet(client, addrs)

	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: no job completed")
		os.Exit(1)
	}
	lats := make([]time.Duration, len(samples))
	clientHits, clientStolen := 0, 0
	for i, s := range samples {
		lats[i] = s.latency
		if s.cached {
			clientHits++
		}
		if s.stolen {
			clientStolen++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(lats)-1))
		return lats[idx]
	}

	submitted := after.submitted - before.submitted
	hitRatio := 0.0
	stealRate := 0.0
	if submitted > 0 {
		hitRatio = (after.hits - before.hits + after.peerHits - before.peerHits) / submitted
		stealRate = (after.stolen - before.stolen) / submitted
	}

	fmt.Printf("arrival             %s (%d replica(s))\n", *arrival, len(addrs))
	fmt.Printf("completed           %d/%d jobs in %v (%.1f jobs/s)\n",
		len(samples), total, wall.Round(time.Millisecond),
		float64(len(samples))/wall.Seconds())
	fmt.Printf("latency p50         %v\n", pct(0.50).Round(time.Microsecond))
	fmt.Printf("latency p95         %v\n", pct(0.95).Round(time.Microsecond))
	fmt.Printf("latency p99         %v\n", pct(0.99).Round(time.Microsecond))
	fmt.Printf("client cache hits   %.1f%% (%d/%d instant)\n",
		100*float64(clientHits)/float64(len(samples)), clientHits, len(samples))
	fmt.Printf("fleet cache-hit     %.1f%% (local+peer hits / submissions, via /metrics)\n", 100*hitRatio)
	fmt.Printf("fleet steal rate    %.1f%% (%d observed stolen)\n", 100*stealRate, clientStolen)
	fmt.Printf("backpressure 429s   %d (retried)\n", rejected.Load())
	fmt.Printf("failed jobs         %d\n", failed.Load())

	exit := 0
	if failed.Load() > 0 {
		exit = 1
	}
	p95Violated := *p95Max > 0 && pct(0.95) > *p95Max
	if p95Violated {
		fmt.Fprintf(os.Stderr, "loadtest: SLO violation: p95 %v > -p95-max %v\n", pct(0.95), *p95Max)
		exit = 1
	}
	hitViolated := *hitMin >= 0 && hitRatio < *hitMin
	if hitViolated {
		fmt.Fprintf(os.Stderr, "loadtest: SLO violation: fleet cache-hit ratio %.3f < -hit-min %.3f\n", hitRatio, *hitMin)
		exit = 1
	}

	if *sloOut != "" {
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		rep := sloReport{
			Arrival:       *arrival,
			Replicas:      len(addrs),
			Completed:     len(samples),
			Submitted:     total,
			WallMS:        ms(wall),
			JobsPerSecond: float64(len(samples)) / wall.Seconds(),
			P50MS:         ms(pct(0.50)),
			P95MS:         ms(pct(0.95)),
			P99MS:         ms(pct(0.99)),
			FleetHitRatio: hitRatio,
			StealRate:     stealRate,
			Rejected429:   rejected.Load(),
			Failed:        failed.Load(),
		}
		rep.SLO.P95MaxMS = ms(*p95Max)
		rep.SLO.P95Violated = p95Violated
		if *hitMin >= 0 {
			rep.SLO.HitMin = *hitMin
		}
		rep.SLO.HitMinViolated = hitViolated
		rep.SLO.Pass = exit == 0
		rep.Stages, rep.TracedJobs = collectStages(client, samples, 16)
		if err := writeSLOReport(*sloOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "loadtest: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

// writeSLOReport marshals the report to path, or stdout for "-".
func writeSLOReport(path string, rep sloReport) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing -slo-report: %w", err)
	}
	fmt.Printf("slo report          %s (%d traced jobs)\n", path, rep.TracedJobs)
	return nil
}

// scrapeFleet sums the counters of interest across every replica's
// /metrics. Unreachable replicas contribute zero (the run itself will
// surface hard failures).
func scrapeFleet(client *http.Client, addrs []string) fleetCounters {
	var c fleetCounters
	for _, addr := range addrs {
		resp, err := client.Get(addr + "/metrics")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, line := range strings.Split(string(raw), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 2 || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				continue
			}
			switch fields[0] {
			case "offsimd_jobs_submitted_total":
				c.submitted += v
			case "offsimd_cache_hits_total":
				c.hits += v
			case "offsimd_peer_cache_hits_total":
				c.peerHits += v
			case "offsimd_jobs_stolen_total":
				c.stolen += v
			}
		}
	}
	return c
}

// runOne submits one spec (retrying on 429 backpressure) and waits for
// the job to finish, polling the replica that owns it, and returns its
// end-to-end latency.
func runOne(client *http.Client, addr string, spec offloadsim.Spec, timeout time.Duration, rejected *atomic.Int64) (sample, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return sample{}, err
	}
	deadline := time.Now().Add(timeout)
	start := time.Now()

	var st jobStatus
	for {
		resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{}, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			// Backpressure: honor it and retry.
			rejected.Add(1)
			if time.Now().After(deadline) {
				return sample{}, fmt.Errorf("still rejected at deadline")
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return sample{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return sample{}, fmt.Errorf("submit: bad status document: %w", err)
		}
		break
	}
	// In a fleet, the submission may have been routed: poll the replica
	// that holds the job.
	pollAddr := addr
	if st.Replica != "" {
		pollAddr = st.Replica
	}
	stolen := st.Stolen

	for st.State != "done" && st.State != "failed" {
		if time.Now().After(deadline) {
			return sample{}, fmt.Errorf("job %s: not finished at deadline (state %s)", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := client.Get(pollAddr + "/v1/jobs/" + st.ID)
		if err != nil {
			return sample{}, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return sample{}, fmt.Errorf("status %s: HTTP %d: %s", st.ID, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return sample{}, err
		}
		stolen = stolen || st.Stolen
	}
	if st.State == "failed" {
		return sample{}, fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	}
	return sample{id: st.ID, replica: pollAddr, latency: time.Since(start), cached: st.Cached, stolen: stolen}, nil
}

// collectStages scrapes the service traces of up to limit completed
// jobs from the replicas that ran them and aggregates span durations by
// stage name — the per-stage latency breakdown behind the end-to-end
// percentiles. A daemon running with tracing disabled answers 404,
// which degrades to an empty breakdown rather than an error.
func collectStages(client *http.Client, samples []sample, limit int) (map[string]stageStats, int) {
	type acc struct {
		n     int
		total time.Duration
		max   time.Duration
	}
	accs := map[string]*acc{}
	traced := 0
	for _, s := range samples {
		if traced >= limit {
			break
		}
		resp, err := client.Get(s.replica + "/v1/debug/traces/" + s.id + "?format=json")
		if err != nil {
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil {
			continue
		}
		traced++
		for _, sp := range spans {
			a := accs[sp.Name]
			if a == nil {
				a = &acc{}
				accs[sp.Name] = a
			}
			d := time.Duration(sp.EndNS - sp.StartNS)
			a.n++
			a.total += d
			if d > a.max {
				a.max = d
			}
		}
	}
	if len(accs) == 0 {
		return nil, traced
	}
	out := make(map[string]stageStats, len(accs))
	for name, a := range accs {
		out[name] = stageStats{
			Spans:  a.n,
			MeanMS: float64(a.total) / float64(a.n) / 1e6,
			MaxMS:  float64(a.max) / 1e6,
		}
	}
	return out, traced
}
