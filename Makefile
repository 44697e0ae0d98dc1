# Development and CI entry points. `make ci` is the gate: formatting,
# vet, the full test suite under the race detector (the server's worker
# pool, and internal/sample's parallel replica replay, must be
# race-clean), and the sampling accuracy sweep in a plain build (it
# asserts wall-clock speedup, so it skips itself under -race).

GO ?= go

.PHONY: ci fmt vet test race server-race build build-examples bench \
	bench-json bench-engine bench-parallel bench-cluster bench-oscore \
	accuracy accuracy-parallel golden golden-check fuzz-smoke \
	telemetry-overhead cluster-e2e oscore-equivalence obs-smoke bench-test

ci: fmt vet build-examples race golden-check bench-test fuzz-smoke telemetry-overhead obs-smoke cluster-e2e oscore-equivalence accuracy accuracy-parallel

build:
	$(GO) build ./...

# The examples are excluded from `go build ./...`-style wildcard test
# runs but must keep compiling against the facade.
build-examples:
	$(GO) build ./examples/...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast loop while working on the daemon.
server-race:
	$(GO) test -race ./internal/server/...

# Sampling accuracy gate: the Figure-4 sweep at the validation scale
# must keep normalized-IPC error within 2% at >=5x speedup.
accuracy:
	$(GO) test -run '^TestSamplingAccuracy$$' -count=1 -v ./internal/experiments/

# Parallel-engine accuracy gate: the multi-core threshold sweep on the
# quantum-parallel engine must keep normalized-IPC error within 2% of
# serial detailed; the 2.5x speedup floor asserts only on hosts with
# >=4 CPUs (docs/PARALLEL.md). Skips itself under -race, like accuracy.
accuracy-parallel:
	$(GO) test -run '^TestParallelAccuracy$$' -count=1 -v ./internal/experiments/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ -pgo=default.pgo .

# Runs the Figure-4 threshold sweep in detailed and sampled mode and
# writes BENCH_sweep.json (ns/op, simulated instrs/sec, speedup).
bench-json:
	OFFLOADSIM_BENCH_JSON=BENCH_sweep.json $(GO) test -run '^TestWriteBenchSweepJSON$$' -count=1 -v .

# Engine hot-path trajectory: runs the shared microbenchmark bodies
# (internal/enginebench) plus the end-to-end detailed run and writes
# BENCH_engine.json against the recorded pre-optimization baseline.
# -pgo is explicit because `go test` does not pick up a root
# default.pgo automatically (see docs/PERFORMANCE.md).
bench-engine:
	OFFLOADSIM_BENCH_ENGINE=BENCH_engine.json $(GO) test -run '^TestWriteBenchEngineJSON$$' -count=1 -v -pgo=default.pgo .

# Fleet acceptance gate, part of `make ci`: the in-process 3-replica
# tests (routing lands on the ring owner, peer cache hit instead of a
# cross-replica recompute, stealing under induced overload, a 64-point
# sweep streamed exactly once) plus the out-of-process run — three real
# offsimd processes driven by the loadtest under -p95-max/-hit-min SLO
# gates (docs/CLUSTER.md).
cluster-e2e:
	$(GO) test -run '^TestFleet' -count=1 -v ./internal/server/ ./cmd/offsimd/

# Fleet throughput trajectory: the 64-point sweep through POST
# /v1/sweeps on a 1-replica vs 3-replica in-process fleet, into
# BENCH_cluster.json (records host CPU count — fan-out on one host
# needs free cores to win).
bench-cluster:
	OFFLOADSIM_BENCH_CLUSTER=BENCH_cluster.json $(GO) test -run '^TestWriteBenchClusterJSON$$' -count=1 -v -timeout 30m .

# Parallel-engine trajectory: serial vs quantum-parallel wall clock on
# the 8-simulated-core configuration, swept over 1/2/4/8 workers, into
# BENCH_parallel.json (records host CPU count — speedup needs free
# cores).
bench-parallel:
	OFFLOADSIM_BENCH_PARALLEL=BENCH_parallel.json $(GO) test -run '^TestWriteBenchParallelJSON$$' -count=1 -v -timeout 30m .

# Multi-OS-core K=1 equivalence gate, part of `make ci`: an enabled
# K=1 synchronous cluster block must collapse to the classic
# single-OS-core model — identical canonical key and byte-identical
# Result JSON (docs/OSCORES.md). This is what keeps the cluster
# subsystem from silently forking the legacy model's behavior.
oscore-equivalence:
	$(GO) test -run '^TestOSCoresK1Equivalence$$' -count=1 -v ./internal/sim/

# Multi-OS-core trajectory: the cluster-size sweep (K={1,2,4} plus a
# big/little async cell) on 4-user-core apache, into BENCH_oscore.json
# with the off-load latency distribution from the event trace (records
# host CPU count — wall speeds are host-class-relative).
bench-oscore:
	OFFLOADSIM_BENCH_OSCORE=BENCH_oscore.json $(GO) test -run '^TestWriteBenchOSCoreJSON$$' -count=1 -v -timeout 30m .

# Telemetry zero-overhead gate: the detailed engine with telemetry
# detached must stay within 2% of the throughput recorded in
# BENCH_engine.json — the nil-tracer checks are the only telemetry code
# on the hot path (docs/TELEMETRY.md). Part of `make ci`. -pgo matches
# bench-engine so the comparison is like-for-like. The second run gates
# the service layer the same way: offsimd with tracing disabled must
# stay within 2% of running the engine directly — the nil-*Tracer
# guards are the only tracing code on the job path
# (docs/OBSERVABILITY.md).
telemetry-overhead:
	OFFLOADSIM_TELEMETRY_OVERHEAD=BENCH_engine.json $(GO) test -run '^TestTelemetryOverheadDisabled$$' -count=1 -v -pgo=default.pgo .
	OFFLOADSIM_TELEMETRY_OVERHEAD=1 $(GO) test -run '^TestServerTracingOverheadDisabled$$' -count=1 -v ./internal/server/

# Distributed-tracing acceptance gate, part of `make ci`: a 3-replica
# in-process fleet with tracing enabled runs a forwarded job, a stolen
# job and an 8-point sweep, and each must download from
# /v1/debug/traces/{id} as one orphan-free trace stitched across every
# replica that touched it; plus span-ID determinism and byte-identical
# results with tracing on vs off (docs/OBSERVABILITY.md).
obs-smoke:
	$(GO) test -run '^TestObs' -count=1 -v ./internal/server/

# Byte-identical golden gate: the corpus in testdata/golden must
# replay exactly. Part of `make ci`; a perf PR that fails this changed
# observable behavior (docs/PERFORMANCE.md, "The golden workflow").
golden-check:
	$(GO) test -run '^TestGoldenResults$$' -count=1 .

# The repository benchmark's own tests, part of `make ci` (~10 s): all
# four workload runners at the default seed, every result checked against
# bench/testdata/digests.json. bench/ is a module of its own, so the
# root's `go test ./...` never reaches it (bench/README.md).
bench-test:
	cd bench && $(GO) test -count=1 ./...

# Regenerate the golden corpus from the current engine. ONLY for
# intentional modeling changes — never to make a perf PR pass.
golden:
	$(GO) test -run '^TestGoldenResults$$' -update -count=1 .
	@echo "testdata/golden regenerated — review 'git diff testdata/golden/' before committing"

# Short fuzz runs of the config-canonicalization, policy-parsing and
# affinity-parsing fuzzers; part of `make ci`. The committed seed
# corpora live under each package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzParseAffinity$$' -fuzztime 10s ./internal/oscore/
