package main

// metricDef names one reported metric and its unit. The two tables below
// are the metric sets BENCHMARK.json declares; bench_test.go keeps them in
// step with it.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator or of offsimd sees. Every
// workload reports every one of them; an operation is a job (detailed-os,
// multicore, serve-open) or a sweep point (sampled-sweep).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer comes from the traced run. A layer that does no work on a
// workload reports 0 there (no service spans on the library workloads, no
// OS-cluster ratio outside multicore).
var perLayer = []metricDef{
	{"latency_p90_ms", "ms"},
	{"trace.cpu_share", "share"},
	{"cpu.cpu_share", "share"},
	{"cache.cpu_share", "share"},
	{"coherence.cpu_share", "share"},
	{"policy.cpu_share", "share"},
	{"oscore.cpu_share", "share"},
	{"sim.cpu_share", "share"},
	{"parallel.cpu_share", "share"},
	{"sample.cpu_share", "share"},
	{"server.cpu_share", "share"},
	{"cluster.cpu_share", "share"},
	{"obs.cpu_share", "share"},
	{"net.cpu_share", "share"},
	{"runtime.cpu_share", "share"},

	{"trace.ns_per_kinstr", "ns"},
	{"cpu.ns_per_kinstr", "ns"},
	{"cache.ns_per_kinstr", "ns"},
	{"coherence.ns_per_miss", "ns"},
	{"policy.ns_per_os_entry", "ns"},
	{"oscore.ns_per_offload", "ns"},

	{"sim.new_ms.p50", "ms"},
	{"sim.run_ms.p50", "ms"},
	{"oscore.host_ratio_k4_k1", "ratio"},
	{"parallel.speedup", "ratio"},
	{"sample.detailed_frac", "share"},

	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.p90", "ms"},
	{"server.admission_ms.p50", "ms"},
	{"server.sim_execute_ms.p50", "ms"},
	{"http.submit_ms.p50", "ms"},
	{"http.result_ms.p50", "ms"},
	{"server.hit_ratio", "share"},
	{"cluster.forward_ratio", "share"},
	{"cluster.peer_forward_ms.p50", "ms"},
	{"cluster.peer_cache_fetch_ms.p50", "ms"},
	{"cluster.peer_execute_ms.p50", "ms"},
	{"server.refused_frac.high", "share"},
	{"serve.p50_ms.high", "ms"},
	{"serve.p90_ms.high", "ms"},
	{"serve.limit_capacity_per_s", "1/s"},

	{"alloc.bytes_per_kinstr", "B"},
	{"gc.cycles", "count"},
	{"gc.heap_live_mb", "MB"},

	{"model.offloads_per_kinstr", "count"},
	{"model.predictor_within5", "share"},
	{"model.user_l2_hit", "share"},
	{"model.os_l2_hit", "share"},
	{"model.c2c_per_kinstr", "count"},
	{"model.fills_per_kinstr", "count"},
	{"model.os_core_util", "share"},
	{"model.queue_delay_mean_cyc", "cycles"},
	{"model.offload_wait_p95_cyc", "cycles"},
	{"model.offload_exec_p95_cyc", "cycles"},

	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

// metricSet accumulates computed values by name; assemble orders them by
// a table and fills 0 for names a workload has no work for.
type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64) { m[name] = metricValue{name: name, value: v} }

// setP records a percentile together with its sample count.
func (m metricSet) setP(name string, samples []float64, q float64) {
	m[name] = metricValue{name: name, value: quantile(samples, q), n: len(samples)}
}

func (m metricSet) assemble(defs []metricDef) []metricValue {
	out := make([]metricValue, 0, len(defs))
	for _, d := range defs {
		v := m[d.name]
		v.name, v.unit = d.name, d.unit
		out = append(out, v)
	}
	return out
}
