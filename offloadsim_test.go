package offloadsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"offloadsim"
	"offloadsim/internal/server"
)

func TestFacadeQuickstart(t *testing.T) {
	prof, ok := offloadsim.WorkloadByName("apache")
	if !ok {
		t.Fatal("apache profile missing")
	}
	cfg := offloadsim.DefaultConfig(prof)
	cfg.Policy = offloadsim.HardwarePredictor
	cfg.Threshold = 100
	cfg.Migration = offloadsim.Aggressive()
	cfg.WarmupInstrs = 50_000
	cfg.MeasureInstrs = 150_000
	res, err := offloadsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if res.Offloads == 0 {
		t.Fatal("no off-loads at N=100 on apache")
	}
}

// TestFacadeTraceExport writes a traced run in both formats through the
// facade and reads the JSONL back; ReadJSONLTrace refuses a span file.
func TestFacadeTraceExport(t *testing.T) {
	prof, _ := offloadsim.WorkloadByName("apache")
	cfg := offloadsim.DefaultConfig(prof)
	cfg.Threshold = 100
	cfg.WarmupInstrs = 20_000
	cfg.MeasureInstrs = 60_000
	_, capt, err := offloadsim.RunTraced(cfg, offloadsim.TelemetryOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, chrome bytes.Buffer
	if err := offloadsim.WriteTraceJSONL(&jsonl, capt); err != nil {
		t.Fatal(err)
	}
	if err := offloadsim.WriteTraceChrome(&chrome, capt); err != nil || !json.Valid(chrome.Bytes()) {
		t.Fatalf("chrome export (err %v) is not valid JSON", err)
	}
	back, err := offloadsim.ReadJSONLTrace(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta != capt.Meta || len(back.Events) != len(capt.Events) || len(back.Events) == 0 {
		t.Fatalf("read back %d of %d events, meta %+v", len(back.Events), len(capt.Events), back.Meta)
	}
	span := `{"trace_id":"ab","span_id":"cd","name":"request","start_unix_ns":1,"end_unix_ns":2,"status":"ok"}`
	if _, err := offloadsim.ReadJSONLTrace(strings.NewReader(span)); err == nil {
		t.Fatal("ReadJSONLTrace accepted a service-span file")
	}
}

func TestFacadeRejectsBadConfig(t *testing.T) {
	prof, _ := offloadsim.WorkloadByName("derby")
	cfg := offloadsim.DefaultConfig(prof)
	cfg.UserCores = 0
	if _, err := offloadsim.Run(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := offloadsim.New(cfg); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

// The config, not the caller, picks the engine: a sampled config runs
// sampled through the facade's Run, through New followed by
// Simulator.Run, and as an offsimd job, with byte-identical results.
func TestRunEngineFollowsConfig(t *testing.T) {
	warm, meas, seed := uint64(100_000), uint64(2_000_000), uint64(1)
	spec := server.JobSpec{
		Workload: "apache", Policy: "HI", Mode: "sampled",
		WarmupInstrs: &warm, MeasureInstrs: &meas, Seed: &seed,
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}

	res, err := offloadsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatal("Run on a sampled config returned no Sampling block")
	}
	viaRun, _ := json.Marshal(res)

	s, err := offloadsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaNew, _ := json.Marshal(s.Run())
	if string(viaNew) != string(viaRun) {
		t.Errorf("New(cfg).Run() differs from Run(cfg)\nNew: %s\nRun: %s", viaNew, viaRun)
	}

	srv := server.New(server.Options{Workers: 1})
	srv.Start()
	defer srv.Shutdown(context.Background())
	st, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := srv.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	viaJob, fin, _ := srv.Result(st.ID)
	if fin.State != server.StateDone {
		t.Fatalf("job %s: %s", fin.State, fin.Error)
	}
	if string(viaJob) != string(viaRun) {
		t.Errorf("offsimd job differs from Run(cfg)\njob: %s\nRun: %s", viaJob, viaRun)
	}

	// New builds one replica; merging several is Run's job.
	two := cfg
	two.Sampling.Replicas = 2
	if _, err := offloadsim.New(two); err == nil || !strings.Contains(err.Error(), "Run") {
		t.Errorf("New with Sampling.Replicas = 2: error %v, want one naming Run", err)
	}
}

func TestFacadeWorkloadSets(t *testing.T) {
	if len(offloadsim.Workloads()) != 9 {
		t.Fatalf("workloads = %d", len(offloadsim.Workloads()))
	}
	if len(offloadsim.ServerWorkloads()) != 3 || len(offloadsim.ComputeWorkloads()) != 6 {
		t.Fatal("suite split wrong")
	}
	if len(offloadsim.WorkloadNames()) != 9 {
		t.Fatal("names incomplete")
	}
	if _, ok := offloadsim.WorkloadByName("nosuch"); ok {
		t.Fatal("unknown workload resolved")
	}
}

func TestFacadeMigrationEngines(t *testing.T) {
	if offloadsim.Conservative().OneWay != 5000 ||
		offloadsim.Fast().OneWay != 3000 ||
		offloadsim.Aggressive().OneWay != 100 ||
		offloadsim.CustomMigration(42).OneWay != 42 {
		t.Fatal("migration engine latencies wrong")
	}
}

func TestFacadePredictorDirect(t *testing.T) {
	p := offloadsim.NewCAMPredictor(offloadsim.DefaultCAMEntries)
	p.Update(7, 500)
	p.Update(7, 500)
	if got := p.Predict(7); got.Length != 500 {
		t.Fatalf("predictor via facade returned %+v", got)
	}
	dm := offloadsim.NewDirectMappedPredictor(offloadsim.DefaultDirectMappedEntries)
	if dm.StorageBits() == 0 {
		t.Fatal("direct-mapped storage unreported")
	}
}

func TestFacadeTunerConfig(t *testing.T) {
	tc := offloadsim.DefaultTunerConfig()
	if tc.SampleEpoch != 25_000_000 {
		t.Fatalf("sample epoch %d, want paper's 25M", tc.SampleEpoch)
	}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExperimentOptions(t *testing.T) {
	if offloadsim.DefaultExperimentOptions().MeasureInstrs <= offloadsim.QuickExperimentOptions().MeasureInstrs {
		t.Fatal("default options should be larger than quick options")
	}
}

func TestFacadeEnergy(t *testing.T) {
	prof, _ := offloadsim.WorkloadByName("apache")
	cfg := offloadsim.DefaultConfig(prof)
	cfg.Policy = offloadsim.HardwarePredictor
	cfg.Threshold = 100
	cfg.WarmupInstrs = 100_000
	cfg.MeasureInstrs = 200_000
	res, err := offloadsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := offloadsim.Energy(res, offloadsim.DefaultEnergyModel())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Joules <= 0 || rep.Seconds <= 0 || rep.EDP <= 0 {
		t.Fatalf("degenerate energy report: %+v", rep)
	}
	if rep.AvgWatts <= 0 || rep.AvgWatts > 20 {
		t.Fatalf("implausible average power %v W", rep.AvgWatts)
	}
	// An invalid model must be rejected.
	bad := offloadsim.DefaultEnergyModel()
	bad.ClockGHz = 0
	if _, err := offloadsim.Energy(res, bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestFacadeExtensions(t *testing.T) {
	apache, _ := offloadsim.WorkloadByName("apache")
	mcf, _ := offloadsim.WorkloadByName("mcf")

	cfg := offloadsim.DefaultConfig(apache)
	cfg.Policy = offloadsim.HardwarePredictor
	cfg.Threshold = 100
	cfg.UserCores = 2
	cfg.Workloads = []*offloadsim.Workload{apache, mcf} // consolidation
	cfg.OSCoreSlots = 2                                 // SMT OS core
	cc := offloadsim.DefaultCoherenceConfig()
	cc.Protocol = offloadsim.MOESI // protocol extension
	cfg.Coherence = cc
	osCPU := offloadsim.DefaultCPUConfig() // heterogeneous OS core
	osCPU.L1I.SizeBytes = 16 << 10
	osCPU.L1D.SizeBytes = 16 << 10
	cfg.OSCPU = &osCPU
	cfg.WarmupInstrs = 80_000
	cfg.MeasureInstrs = 150_000

	res, err := offloadsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mixed" {
		t.Fatalf("consolidated run labeled %q", res.Workload)
	}
	if len(res.PerCoreIPC) != 2 {
		t.Fatal("per-core results missing")
	}
	if res.Offloads == 0 {
		t.Fatal("extension stack never off-loaded")
	}
}
