GO ?= go
FUZZTIME ?= 30s

.PHONY: fmt build test test-short test-race vet fuzz-smoke fuzz alloc-guard smoke examples bench bench-quick ci

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
	$(GO) test ./internal/lang ./internal/network ./internal/difftest ./internal/dist ./internal/server -run '^Fuzz'
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime 10s
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzParser$$' -fuzztime 10s
	$(GO) test ./internal/network -run '^$$' -fuzz '^FuzzIntern$$' -fuzztime 10s
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime 10s
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime 10s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzRequestBody$$' -fuzztime 10s

# fuzz runs the differential pipeline fuzzer for FUZZTIME (default 30s).
fuzz:
	$(GO) test ./internal/difftest -run '^$$' -fuzz '^FuzzPipeline$$' -fuzztime $(FUZZTIME)

# alloc-guard pins the obs-disabled front end and the compilation core to
# their allocation budgets, and a cached artifact to its retained-heap budget
# (see allocguard_test.go).
alloc-guard:
	$(GO) test -run '^Test(FrontEnd|Compile|RetainedArtifact)AllocGuard$$' -count=1 -v .

# smoke runs the process drills (cmd/enframe/smoke_test.go): real enframe
# serve, worker and route child processes driven over HTTP, TCP and the CLI
# — the served circuit hit, worker byte-identity plus a kill drill, a
# cross-process Chrome trace, a sharded fleet's join warming and SIGKILL
# failover, the streaming twin-session oracle, and the CLI observability
# flags. Every SIGTERM'd child must exit 0. `go test ./...` runs them too;
# -short skips them.
smoke:
	$(GO) test ./cmd/enframe -run '^TestSmoke' -count=1 -v

# examples runs the example programs end to end; each exits nonzero on
# failure. approximation is left out: it compiles a 60-object network
# exactly twice and takes about a minute.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/energygrid
	$(GO) run ./examples/pctable
	$(GO) run ./examples/markov

# bench runs the repository's benchmark (BENCHMARK.json, benchmark/): all
# five workloads with 20 s windows. bench-quick uses 5 s windows and is the
# end-to-end correctness gate of ci: it exits nonzero on any wrong answer,
# and its timings are not judged. Results land in the ignored benchmark/out/.
bench:
	$(GO) run ./benchmark -seed 1

bench-quick:
	$(GO) run ./benchmark -seed 1 -seconds 5

ci: fmt vet build test test-race alloc-guard examples bench-quick
