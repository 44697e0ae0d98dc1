# Development and CI entry points. `make ci` is the gate: formatting,
# vet, the full test suite under the race detector (the server's worker
# pool, and sim.Run's parallel replica replay, must be race-clean), and
# the sampling accuracy sweep in a plain build (it asserts wall-clock
# speedup, so it skips itself under -race).

GO ?= go

.PHONY: ci fmt vet test race server-race build build-examples bench \
	bench-engine bench-parallel bench-cluster \
	accuracy accuracy-parallel golden golden-check fuzz-smoke \
	telemetry-overhead cluster-e2e obs-smoke bench-test bench-digests fma-check \
	pgo-check

ci: fmt vet fma-check pgo-check build-examples race golden-check bench-test bench-digests fuzz-smoke telemetry-overhead obs-smoke cluster-e2e accuracy accuracy-parallel

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

# Cross-architecture determinism gate, part of `make ci`. On arm64 the
# compiler fuses x*y + z into one multiply-add that rounds once, where
# amd64 rounds twice, so a fused product on a result path would make
# result bytes depend on the host architecture. Each such product is
# wrapped in an explicit float64(...) conversion, which the Go spec
# defines as forbidding fusion. The gate is static: no arm64 host or
# emulator is available to replay the goldens, so it cross-compiles for
# arm64 and fails on any fused instruction in the assembly.
fma-check:
	@GOARCH=arm64 $(GO) build ./... || { echo "fma-check: arm64 build failed"; exit 1; }
	@out="$$(GOARCH=arm64 $(GO) build -gcflags='offloadsim/...=-S' ./... 2>&1 | grep -E '\bF(N)?M(ADD|SUB)[DS]\b')"; \
	if [ -n "$$out" ]; then \
		echo "fma-check: fused multiply-adds on arm64; wrap each product in float64(...):"; \
		echo "$$out"; exit 1; \
	fi

# PGO inlining gate, part of `make ci` (~10 s). default.pgo names hot
# call sites by their line offset inside the calling function, so one
# line added to or removed from cpu.(*Core).RunSegment — a comment line
# too — silently drops the profile-guided inlining of its hot calls
# (docs/PERFORMANCE.md, PGO). The gate rebuilds internal/cpu with
# default.pgo and fails, naming each call, unless RunSegment still
# inlines NextData twice and NextIFetch, Probe and missRef once each.
pgo-check:
	@span="$$(awk '/^func \(c \*Core\) RunSegment\(/ { s = NR } s && /^}/ { print s, NR; exit }' internal/cpu/cpu.go)"; \
	out="$$($(GO) build -a -pgo=default.pgo -gcflags=offloadsim/internal/cpu=-m ./internal/cpu 2>&1)" || { echo "$$out"; exit 1; }; \
	missing="$$(echo "$$out" | awk -v span="$$span" ' \
		BEGIN { split(span, r, " "); want["trace.(*Segment).NextData"] = 2; \
			want["trace.(*Segment).NextIFetch"] = 1; want["cache.(*Cache).Probe"] = 1; \
			want["(*Core).missRef"] = 1 } \
		/^internal\/cpu\/cpu\.go:[0-9]+:[0-9]+: inlining call to / { split($$1, f, ":"); \
			if (f[2] >= r[1] && f[2] <= r[2]) got[$$NF]++ } \
		END { for (k in want) if (got[k] < want[k]) printf "  %s: %d of %d\n", k, got[k], want[k] }' | sort)"; \
	if [ -z "$$span" ] || [ -n "$$missing" ]; then \
		echo "pgo-check: cpu.(*Core).RunSegment lost profile-guided inlines (re-profile default.pgo or restore the line offsets):"; \
		echo "$$missing"; exit 1; \
	fi; \
	echo "pgo-check: RunSegment inlines NextData x2, NextIFetch, Probe and missRef"

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
# sweep streamed exactly once, also with every third peer execute
# refused, 503'd, 429'd, dropped or delayed) plus the out-of-process
# run — three real offsimd processes driven by the loadtest under
# -p95-max/-hit-min SLO gates (docs/CLUSTER.md).
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

# Every default-seed digest, part of `make ci` (~20 s): one short run of
# each engine workload. At seed 1 a run checks every job and sweep point
# it issues against bench/testdata/digests.json and exits non-zero on a
# mismatch, and even a 1-second window completes the whole digest set —
# all six multicore shapes included, where bench-test covers two.
# serve-open is left out: its jobs take the detailed-os engine path, and
# at short windows its load-ladder sanity check errors.
bench-digests:
	@for w in detailed-os multicore sampled-sweep; do \
		echo "bench-digests: $$w"; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# Regenerate the golden corpus from the current engine. ONLY for
# intentional modeling changes — never to make a perf PR pass.
golden:
	$(GO) test -run '^TestGoldenResults$$' -update -count=1 .
	@echo "testdata/golden regenerated — review 'git diff testdata/golden/' before committing"

# Short fuzz runs of the config-canonicalization, policy-parsing and
# affinity-parsing fuzzers, of the two decoders offsimd runs on
# untrusted request bodies (job specs, sweep grids), and of the two
# trace-file decoders (obs.ReadJSONL, behind tracedump -convert, and
# tracefile.Reader, behind tracedump -summary/-replay); part of
# `make ci`. The committed seed corpora live under each package's
# testdata/fuzz/; FuzzReadTracefile builds its seeds in the test. The
# JSONL trace seeds are export excerpts of up to 2 KB;
# minimizing each new input derived from them for the default 60 s would
# use up the run, so FuzzReadJSONL minimizes for at most 1 s.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime 10s ./internal/policy/
	$(GO) test -run '^$$' -fuzz '^FuzzParseAffinity$$' -fuzztime 10s ./internal/oscore/
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime 10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadTracefile$$' -fuzztime 10s ./internal/tracefile/
