// Package offloadsim is a trace-driven multi-core simulator reproducing
// "Improving Server Performance on Multi-Cores via Selective Off-loading
// of OS Functionality" (Nellans, Sudan, Brunvand, Balasubramonian;
// WIOSCA/ISCA 2010).
//
// The paper proposes a small hardware predictor of OS invocation
// run-length: at every transition to privileged mode, the core XOR-hashes
// PSTATE, g0, g1, i0 and i1 into a 64-bit "AState", looks it up in a
// ~2 KB table, and off-loads the invocation to a dedicated OS core when
// the predicted length exceeds a dynamically tuned threshold N. This
// module rebuilds the entire evaluation stack in pure Go: in-order
// SPARC-flavoured cores, private L1/L2 hierarchies kept coherent by a
// directory MESI protocol, synthetic server/compute workloads, the
// predictor and its software competitors (static and dynamic
// instrumentation), the epoch-based threshold tuner, and runners for
// every table and figure in the paper.
//
// # Quick start
//
//	prof, _ := offloadsim.WorkloadByName("apache")
//	cfg := offloadsim.DefaultConfig(prof)
//	cfg.Policy = offloadsim.HardwarePredictor
//	cfg.Threshold = 100
//	cfg.Migration = offloadsim.Aggressive()
//	res, err := offloadsim.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("throughput %.4f, off-load rate %.2f\n", res.Throughput, res.OffloadRate)
//
// Compare against the single-core baseline by running the same config
// with Policy set to Baseline and dividing throughputs.
//
// Run is the one entry point for every engine, and the config picks it:
// serial detailed by default, the quantum-parallel engine when
// cfg.Parallel is enabled, interval sampling when cfg.Sampling is
// (Sampling.Replicas seeds run in parallel and merge deterministically;
// res.Sampling.ThroughputRelErr is the estimate's 95% error bound).
// RunTraced is Run with telemetry attached.
//
// # Layout
//
// The paper's contribution (predictor, decision engine, dynamic-N tuner)
// lives in internal/core; every substrate has its own internal package
// (cache, coherence, cpu, trace, workloads, migration, policy, sim);
// internal/experiments regenerates the paper's tables and figures. This
// root package is the stable public surface over those internals.
package offloadsim
