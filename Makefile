GO ?= go
FUZZTIME ?= 30s

.PHONY: fmt build test test-short test-race vet fuzz-smoke fuzz bench-serve alloc-guard smoke serve-smoke worker-smoke trace-smoke bench-distributed bench-whatif shard-smoke bench-shard stream-smoke bench-stream bench-spine bench-spine-quick ci

# fmt fails when any Go file is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-race is also the concurrency gate for the metrics registry and tracer
# (internal/obs) and for the golden-bits and circuit oracles
# (internal/difftest), whose per-seed subtests run in parallel.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fuzz-smoke replays the committed corpora (runs as ordinary tests) and then
# fuzzes each target briefly; quick enough for CI.
fuzz-smoke:
	$(GO) test ./internal/lang ./internal/difftest ./internal/dist -run '^Fuzz'
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime 10s
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzParser$$' -fuzztime 10s
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s

# fuzz runs the differential pipeline fuzzer for FUZZTIME (default 30s).
fuzz:
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime $(FUZZTIME)

# alloc-guard pins the obs-disabled front end and the compilation core to
# their allocation budgets, and a cached artifact to its retained-heap budget
# (see allocguard_test.go).
alloc-guard:
	$(GO) test -run '^Test(FrontEnd|Compile|RetainedArtifact)AllocGuard$$' -count=1 -v .

# bench-serve loads the serving layer (in-process, ephemeral port) and
# refreshes BENCH_serve.json: throughput, p50/p95/p99 latency, and the
# compiled-artifact cache hit rate.
bench-serve:
	$(GO) run ./cmd/loadgen -out BENCH_serve.json

# smoke exercises the observability CLI surface on a quickstart-sized run:
# -trace must print a span tree, -json must emit valid JSON on stdout, and
# -trace-out must produce a loadable Chrome trace.
smoke: build
	$(GO) run ./cmd/enframe -program kmedoids -n 8 -vars 6 -iter 2 \
		-trace -json -trace-out /tmp/enframe-smoke-trace.json > /tmp/enframe-smoke.json
	$(GO) run ./cmd/enframe -program kmedoids -n 8 -vars 6 -iter 2 \
		-strategy hybrid -eps 0.1 -workers 4 -metrics > /dev/null

# serve-smoke boots a server on an ephemeral port, POSTs the builtin
# kmedoids request twice, asserts the second response reports "cache":"hit"
# and "served_from":"circuit" with timings_ms.compile under 1 ms (answered
# from the artifact's memoized circuit, no recompile), and drains.
serve-smoke: build
	$(GO) run ./cmd/loadgen -smoke

# worker-smoke spawns real `enframe worker` processes and requires marginals
# shipped over TCP to be byte-identical to the in-process compile — once
# against healthy workers and once with a worker killing itself mid-run
# (DESIGN.md, "Distributed plane").
worker-smoke: build
	$(GO) run ./cmd/distbench -smoke

# trace-smoke runs one remote compilation through the real CLI against a real
# worker process and requires the emitted Chrome trace to parse and to carry
# the worker's spans on its own named process lane (cross-process trace
# propagation end to end, OBSERVABILITY.md).
trace-smoke: build
	$(GO) run ./cmd/distbench -trace-smoke

# bench-distributed measures per-job busy times over a real worker process
# and refreshes BENCH_distributed.json: virtual makespans for 1/2/4/8
# workers from list-scheduling the measured job DAG (the single-CPU CI
# container cannot show real multi-process scaling). Fails below ×1.5
# virtual speedup at 4 workers.
bench-distributed: build
	$(GO) run ./cmd/distbench -out BENCH_distributed.json

# bench-whatif benchmarks the /v1/whatif circuit serving mode and refreshes
# BENCH_whatif.json: a warm 32-point sweep must replay the cached circuit
# with zero recompilations, and one replay must beat one warm recompile (a
# hybrid /v1/run at negligible ε — exact runs replay the circuit themselves)
# by at least 5× per point.
bench-whatif: build
	$(GO) run ./cmd/loadgen -whatif -out BENCH_whatif.json

# shard-smoke boots a real sharded fleet (2 enframe serve shards + an
# enframe route router, separate processes), requires routed marginals to be
# byte-identical to a single-node reference, joins a third shard and verifies
# the router warmed the keys it now owns (direct shard-side cache probes),
# then SIGKILLs a primary and requires replica failover (SERVING.md,
# "Sharded fleet").
shard-smoke: build
	$(GO) run ./cmd/loadgen -shard-smoke

# stream-smoke boots a real `enframe serve` process and drives the /v1/stream
# streaming data plane end to end: twin sessions (incremental vs an
# always-full-recompile oracle) fed identical delta batches must stay
# bitwise-identical after every push, a duplicate push must be rejected with
# 409 carrying the session sequence, and the process must return to its
# baseline goroutine count after the sessions close (no leaks) before
# draining on SIGTERM (SERVING.md, "Streaming sessions").
stream-smoke: build
	$(GO) run ./cmd/loadgen -stream-smoke

# bench-stream measures streaming update latency and refreshes
# BENCH_stream.json: probability-only deltas must replay the memoized circuit
# at least 100× faster than a warm full recompilation, and incremental
# structural deltas (one dirty segment of eight) at least 2× faster.
bench-stream: build
	$(GO) run ./cmd/loadgen -stream -out BENCH_stream.json

# bench-shard measures shard-count scaling and merges the shard_scaling
# section into BENCH_serve.json: real warm per-key service times partitioned
# by the real consistent-hash ring over 1/2/4 virtual shards (the single-CPU
# CI container cannot show real multi-process scaling — real fleets are
# measured as labeled context). Fails below ×1.5 virtual warm throughput at
# 4 shards.
bench-shard: build
	$(GO) run ./cmd/loadgen -shard-sweep -out BENCH_serve.json

# bench-spine runs the repository's benchmark (BENCHMARK.json, benchmark/):
# all five workloads with 20 s windows, tracing off. bench-spine-quick is the
# same with 5 s windows. Neither is part of ci yet (ROADMAP item 1).
bench-spine:
	$(GO) run ./benchmark -seed 1

bench-spine-quick:
	$(GO) run ./benchmark -seed 1 -seconds 5

ci: fmt vet build test test-race alloc-guard smoke serve-smoke worker-smoke trace-smoke bench-distributed bench-whatif shard-smoke stream-smoke
