package sim

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"offloadsim/internal/policy"
	"offloadsim/internal/workloads"
)

// oscoresCfg returns a quick multi-OS-core configuration.
func oscoresCfg(kind policy.Kind, block OSCores) Config {
	cfg := quickCfg(workloads.Apache(), kind)
	cfg.UserCores = 2
	cfg.OSCores = block
	return cfg
}

// collapsingBlocks are enabled blocks that describe the default single
// OS core (K=1, synchronous, symmetric, no depth modulation);
// nonCollapsingBlocks each describe something that core cannot.
var (
	collapsingBlocks = []OSCores{
		{Enabled: true},
		{Enabled: true, K: 1},
		{Enabled: true, K: 1, Affinity: "file=0"},
		{Enabled: true, K: 1, Asymmetry: "1"},
		{Enabled: true, K: 1, Rebalance: true},
	}
	nonCollapsingBlocks = []OSCores{
		{Enabled: true, K: 2},
		{Enabled: true, K: 1, Async: true},
		{Enabled: true, K: 1, Asymmetry: "0.5"},
		{Enabled: true, K: 1, DepthN: 50},
	}
)

func TestOSCoresWithDefaults(t *testing.T) {
	// Disabled blocks zero out whatever stale knobs they carry.
	if got := (OSCores{K: 7, Async: true, DepthN: 3}).withDefaults(); got != (OSCores{}) {
		t.Fatalf("disabled block kept fields: %+v", got)
	}
	// A K=1 synchronous symmetric block is the default single OS core.
	for _, o := range collapsingBlocks {
		if got := o.withDefaults(); got != (OSCores{}) {
			t.Errorf("%+v should collapse to the disabled block, got %+v", o, got)
		}
	}
	// Anything the default single OS core cannot express stays enabled.
	for _, o := range nonCollapsingBlocks {
		if got := o.withDefaults(); !got.Enabled {
			t.Errorf("%+v collapsed but is not the default single OS core", o)
		}
	}
	// Async pins the double-buffered default slot budget.
	if got := (OSCores{Enabled: true, K: 2, Async: true}).withDefaults(); got.AsyncSlots != DefaultAsyncSlots {
		t.Fatalf("AsyncSlots = %d, want %d", got.AsyncSlots, DefaultAsyncSlots)
	}
	// Equivalent spellings normalize to one canonical block.
	a := OSCores{Enabled: true, K: 2, Affinity: "trap=0,identity=1", Asymmetry: "1,1"}.withDefaults()
	b := OSCores{Enabled: true, K: 2}.withDefaults()
	if a != b {
		t.Fatalf("spelled-out defaults normalize differently: %+v vs %+v", a, b)
	}
}

func TestOSCoresValidate(t *testing.T) {
	cases := []struct {
		name    string
		block   OSCores
		wantErr string
	}{
		{name: "disabled", block: OSCores{}},
		{name: "plain k4", block: OSCores{Enabled: true, K: 4}},
		{name: "affinity+asymmetry", block: OSCores{Enabled: true, K: 2,
			Affinity: "file=0,network=1", Asymmetry: "1,0.5"}},
		{name: "async", block: OSCores{Enabled: true, K: 2, Async: true, AsyncSlots: 4}},
		{name: "negative K", block: OSCores{Enabled: true, K: -1}, wantErr: "negative OSCores.K"},
		{name: "huge K", block: OSCores{Enabled: true, K: 1000}, wantErr: "> 64"},
		{name: "bad affinity class", block: OSCores{Enabled: true, K: 2, Affinity: "disk=0"},
			wantErr: "unknown syscall class"},
		{name: "affinity out of range", block: OSCores{Enabled: true, K: 2, Affinity: "file=5"},
			wantErr: "outside"},
		{name: "bad asymmetry count", block: OSCores{Enabled: true, K: 2, Asymmetry: "1,1,1"},
			wantErr: "3 factors for 2"},
		{name: "slots without async", block: OSCores{Enabled: true, K: 2, AsyncSlots: 2},
			wantErr: "AsyncSlots set without Async"},
		{name: "negative slots", block: OSCores{Enabled: true, K: 2, Async: true, AsyncSlots: -1},
			wantErr: "negative OSCores.AsyncSlots"},
		{name: "negative depth", block: OSCores{Enabled: true, K: 2, DepthN: -5},
			wantErr: "negative OSCores.DepthN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := oscoresCfg(policy.HardwarePredictor, tc.block)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid block rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}

	// Both engines run one step, and the parallel engine's quantum
	// workers run it concurrently against one shared cluster. step calls
	// a cluster method only under Async (drainAsync) or DepthN > 0 (the
	// depth modulation), and the barrier books every deferred off-load on
	// queue 0 at full speed. So quantum workers call no cluster method
	// only because every block the default single OS core cannot express
	// is rejected with Parallel.
	for _, o := range nonCollapsingBlocks {
		cfg := oscoresCfg(policy.HardwarePredictor, o)
		cfg.Parallel = DefaultParallel()
		if err := cfg.Validate(); err == nil ||
			!strings.Contains(err.Error(), "Parallel cannot be combined with OSCores") {
			t.Errorf("Parallel with %+v: err = %v, want the Parallel+OSCores rejection", o, err)
		}
	}
	// A block that collapses to the default is the same config as no
	// block, and runs on the parallel engine.
	for _, o := range collapsingBlocks {
		cfg := oscoresCfg(policy.HardwarePredictor, o)
		cfg.Parallel = DefaultParallel()
		cfg.WarmupInstrs, cfg.MeasureInstrs = 0, 20_000
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("Parallel with collapsing %+v rejected: %v", o, err)
		}
		if r := s.Run(); r.Parallel == nil || r.Parallel.Quanta == 0 || r.OffloadRate == 0 {
			t.Errorf("Parallel with collapsing %+v: parallel provenance %+v, off-load rate %v",
				o, r.Parallel, r.OffloadRate)
		}
	}
}

// The cache-compatibility promise: an enabled K=1 synchronous block
// describes the same one-OS-core cluster as a config without the block,
// so both share one canonical key (and therefore cached results, golden
// cells and bench digests).
func TestOSCoresK1Equivalence(t *testing.T) {
	plain := oscoresCfg(policy.HardwarePredictor, OSCores{})
	k1 := oscoresCfg(policy.HardwarePredictor, OSCores{Enabled: true, K: 1})

	plainKey, err := CanonicalKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	k1Key, err := CanonicalKey(k1)
	if err != nil {
		t.Fatal(err)
	}
	if plainKey != k1Key {
		t.Fatalf("K=1 sync key %s != key without OSCores %s", k1Key, plainKey)
	}
}

// Without an OSCores block the Result reports the single queue's
// running mean. The cluster's pooled Sum/N re-derives it as mean x n / n,
// which lands one ulp away on this serial three-core config.
func TestSingleOSCoreMeanQueueDelay(t *testing.T) {
	cfg := DefaultConfig(workloads.SPECjbb())
	cfg.UserCores = 3
	cfg.Threshold = 100
	cfg.WarmupInstrs = 200_000
	cfg.MeasureInstrs = 500_000
	s := MustNew(cfg)
	r := s.Run()
	qd := &s.osc.Queue(0).QueueDelay
	if pooled := qd.Sum() / float64(qd.N()); pooled == qd.Mean() {
		t.Fatalf("config no longer separates Sum/N from the running mean (%v); pick one that does", pooled)
	}
	if r.MeanQueueDelay != qd.Mean() {
		t.Fatalf("MeanQueueDelay = %v, want the queue's running mean %v", r.MeanQueueDelay, qd.Mean())
	}
}

func TestOSCoresCanonicalKeyDiscriminates(t *testing.T) {
	base := oscoresCfg(policy.HardwarePredictor, OSCores{})
	variants := []OSCores{
		{Enabled: true, K: 2},
		{Enabled: true, K: 4},
		{Enabled: true, K: 2, Rebalance: true},
		{Enabled: true, K: 2, Async: true},
		{Enabled: true, K: 2, Asymmetry: "1,0.5"},
		{Enabled: true, K: 2, Affinity: "*=0,network=1"},
		{Enabled: true, K: 2, DepthN: 100},
	}
	seen := map[string]string{}
	baseKey, err := CanonicalKey(base)
	if err != nil {
		t.Fatal(err)
	}
	seen[baseKey] = "disabled"
	for _, v := range variants {
		cfg := base
		cfg.OSCores = v
		key, err := CanonicalKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		desc := v.Affinity + "/" + v.Asymmetry
		if prev, dup := seen[key]; dup {
			t.Errorf("variant %+v shares key with %s", v, prev)
		}
		seen[key] = desc
	}
}

func TestClusterRunSynchronous(t *testing.T) {
	cfg := oscoresCfg(policy.HardwarePredictor, OSCores{
		Enabled: true, K: 2, Affinity: "file=0,network=1", Rebalance: true,
	})
	r := MustNew(cfg).Run()
	if !r.HasOSCore {
		t.Fatal("cluster run reports no OS core")
	}
	if r.OSCores == nil {
		t.Fatal("cluster run missing OSCores provenance")
	}
	if r.OSCores.K != 2 || r.OSCores.Async {
		t.Fatalf("provenance K=%d Async=%v, want 2,false", r.OSCores.K, r.OSCores.Async)
	}
	if len(r.OSCores.PerCore) != 2 {
		t.Fatalf("PerCore has %d entries, want 2", len(r.OSCores.PerCore))
	}
	if len(r.OSCores.PerClass) != 8 {
		t.Fatalf("PerClass has %d entries, want 8", len(r.OSCores.PerClass))
	}
	var perCoreReq, perClassReq uint64
	for _, st := range r.OSCores.PerCore {
		perCoreReq += st.Requests
	}
	for _, st := range r.OSCores.PerClass {
		perClassReq += st.Requests
	}
	if perCoreReq != perClassReq {
		t.Fatalf("per-core requests %d != per-class requests %d", perCoreReq, perClassReq)
	}
	if perCoreReq == 0 {
		t.Fatal("apache/HI run off-loaded nothing to the cluster")
	}
	if r.OSCores.AsyncDispatched != 0 || r.OSCores.AsyncOutstanding != 0 {
		t.Fatalf("synchronous run recorded async activity: %+v", r.OSCores)
	}
	if r.Throughput <= 0 {
		t.Fatalf("throughput %v", r.Throughput)
	}
}

func TestClusterRunAsync(t *testing.T) {
	cfg := oscoresCfg(policy.HardwarePredictor, OSCores{Enabled: true, K: 2, Async: true})
	r := MustNew(cfg).Run()
	if r.OSCores == nil || !r.OSCores.Async {
		t.Fatal("async provenance missing")
	}
	if r.OSCores.AsyncDispatched == 0 {
		t.Fatal("async run dispatched nothing fire-and-forget (apache writes/sends should qualify)")
	}
	if got := r.OSCores.AsyncReconciled + r.OSCores.AsyncOutstanding; got != r.OSCores.AsyncDispatched {
		t.Fatalf("reconciled %d + outstanding %d != dispatched %d",
			r.OSCores.AsyncReconciled, r.OSCores.AsyncOutstanding, r.OSCores.AsyncDispatched)
	}
}

// Asymmetric little cores execute the same off-loaded work in more
// reference cycles, so OS-side busy time must grow monotonically as the
// cluster slows down.
func TestClusterAsymmetrySlowsOSSide(t *testing.T) {
	busyAt := func(asym string) uint64 {
		cfg := oscoresCfg(policy.HardwarePredictor, OSCores{Enabled: true, K: 2, Asymmetry: asym})
		r := MustNew(cfg).Run()
		if r.OSBusyCycles == 0 {
			t.Fatalf("asymmetry %q: no OS busy cycles", asym)
		}
		return r.OSBusyCycles
	}
	full := busyAt("")
	half := busyAt("0.5,0.5")
	if half <= full {
		t.Fatalf("half-speed cluster busy %d <= full-speed busy %d", half, full)
	}
}

// The async engine runs on the serial stepper, so its results — like
// every detailed result — must be a pure function of the Config,
// independent of host parallelism. This is the acceptance property for
// async dispatch ordering.
func TestClusterAsyncDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := oscoresCfg(policy.HardwarePredictor, OSCores{
		Enabled: true, K: 4, Async: true, Rebalance: true,
		Affinity: "trap=0,identity=0,file=1,network=2,*=3", Asymmetry: "1,1,0.5,0.5",
	})
	cfg.UserCores = 4
	runAt := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		j, err := json.Marshal(MustNew(cfg).Run())
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	serial := runAt(1)
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	if parallel := runAt(procs); serial != parallel {
		t.Fatal("cluster result differs between GOMAXPROCS=1 and NumCPU")
	}
}

// Sampling composes with the cluster model: the sampled run drives the
// same serial stepper, so it must produce a provenance-carrying result
// without error.
func TestClusterSamplingComposes(t *testing.T) {
	cfg := oscoresCfg(policy.HardwarePredictor, OSCores{Enabled: true, K: 2, Async: true})
	cfg.Sampling = DefaultSampling()
	r := MustNew(cfg).Run()
	if r.Sampling == nil {
		t.Fatal("sampled run missing sampling provenance")
	}
	if r.OSCores == nil || r.OSCores.K != 2 {
		t.Fatal("sampled cluster run missing OSCores provenance")
	}
	if r.Throughput <= 0 {
		t.Fatalf("throughput %v", r.Throughput)
	}
}

// DepthN raises the effective threshold under backlog, so it can only
// reduce (or retain) off-load volume relative to the same config without
// modulation.
func TestClusterDepthNReducesOffloads(t *testing.T) {
	at := func(depth int) uint64 {
		cfg := oscoresCfg(policy.HardwarePredictor, OSCores{Enabled: true, K: 2, DepthN: depth})
		cfg.UserCores = 4
		return MustNew(cfg).Run().Offloads
	}
	plain := at(0)
	damped := at(5000)
	if plain == 0 {
		t.Fatal("no off-loads in undamped run")
	}
	if damped > plain {
		t.Fatalf("DepthN=5000 off-loaded more (%d) than DepthN=0 (%d)", damped, plain)
	}
}
