// Command loadgen drives the ENFrame serving layer (internal/server) at
// configurable concurrency and duration and writes a BENCH_serve.json
// snapshot: throughput, p50/p95/p99/p999 latency, per-status counts, the
// compiled-artifact cache hit rate, and the server's own latency histogram
// (pulled from /metrics?format=json) so client-sampled percentiles can be
// cross-checked against the server's cumulative buckets. With no -addr it boots an in-process
// server on an ephemeral port, so `make bench-serve` is self-contained;
// point -addr at a running `enframe serve` to load an external process.
//
// The default run measures the warm steady state and then a short cold
// phase with -no-cache-key semantics (every request gets a fresh data seed,
// so every cache key misses and the full front end runs per request); the
// cold numbers land in the snapshot's "cold" section. Passing -no-cache-key
// makes the entire measured run cold instead.
//
// `loadgen -smoke` instead runs the CI smoke check: POST one builtin
// kmedoids request twice, assert the second response reports a cache hit
// served from the memoized circuit with compile time under 1 ms, then drain
// — exiting nonzero on any violation.
//
// `loadgen -whatif` benchmarks the circuit serving mode: one cold
// /v1/whatif sweep pays the trace, warm sweeps must replay the cached
// circuit with zero recompilations (verified via circuit.cache.hits), and
// the per-point replay cost is gated to beat a warm recompilation by ≥5×.
// The snapshot lands in BENCH_whatif.json (-out).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/benchutil"
	"enframe/internal/server"
)

var (
	addrFlag = flag.String("addr", "", "server address (empty = boot an in-process server)")
	outFlag  = flag.String("out", "BENCH_serve.json", "output file")
	cFlag    = flag.Int("c", 8, "concurrent client goroutines")
	durFlag  = flag.Duration("d", 5*time.Second, "measured load duration")
	keysFlag = flag.Int("keys", 4, "distinct request keys cycled per client (1 = maximal cache reuse)")
	nFlag    = flag.Int("n", 10, "data points per request")
	varsFlag = flag.Int("vars", 6, "variable pool of the positive scheme")
	smokeFlg = flag.Bool("smoke", false, "run the CI smoke check instead of a load run")
	whatifFl = flag.Bool("whatif", false,
		"run the what-if circuit benchmark (warm sweep replay vs recompilation) instead of a load run")
	coldFlag = flag.Bool("no-cache-key", false,
		"jitter every request's data seed so no cache key repeats (measures the cold path)")
	tenantsFlag = flag.Int("tenants", 0,
		"multi-tenant mode: spread the keyspace over this many named tenants (0 = anonymous single-tenant)")
	zipfFlag = flag.Float64("zipf", 1.1,
		"with -tenants: Zipf skew s over the tenants×keys keyspace (higher = hotter head)")
	shardSweepFl = flag.Bool("shard-sweep", false,
		"run the shard-count scaling sweep (1/2/4 real shard processes + virtual partitioning model) and merge the shard_scaling section into -out")
	shardSmokeFl = flag.Bool("shard-smoke", false,
		"run the sharded-fleet CI smoke: real shard + router processes, byte-identity vs single-node, join warming, kill-one-shard failover")
	streamFl = flag.Bool("stream", false,
		"run the streaming update-latency benchmark (incremental deltas vs warm full recompilation) and write the snapshot to -out")
	streamSmokeFl = flag.Bool("stream-smoke", false,
		"run the streaming CI smoke: real server process, twin sessions checked bitwise against a full-recompile oracle, seq-conflict and goroutine-leak checks")
)

// coldSeedBase offsets jittered seeds far above the warm key range so a cold
// request can never collide with a warmed cache entry.
const coldSeedBase = int64(1) << 20

// coldSeq hands out a fresh seed per cold request.
var coldSeq atomic.Int64

func request(seed int64) server.RunRequest {
	return server.RunRequest{
		Program: "kmedoids",
		Data:    server.DataSpec{N: *nFlag, Vars: *varsFlag, L: 6, Seed: seed},
		Params:  server.ParamSpec{K: 2, Iter: 2},
	}
}

// post sends one run request and reports (latency, HTTP status, cache
// field). Transport errors return status 0.
func post(client *http.Client, addr string, req server.RunRequest) (time.Duration, int, string) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, ""
	}
	start := time.Now()
	resp, err := client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(start), 0, ""
	}
	defer resp.Body.Close()
	var out struct {
		Cache string `json:"cache"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return time.Since(start), resp.StatusCode, out.Cache
}

// ensureServer returns the target address, booting an in-process server
// (and its stop function) when -addr is empty.
func ensureServer() (string, func(), error) {
	if *addrFlag != "" {
		return *addrFlag, func() {}, nil
	}
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return "", nil, err
	}
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: drain:", err)
		}
	}
	return srv.Addr(), stop, nil
}

type sample struct {
	latency time.Duration
	status  int
	cache   string
	tenant  string
}

type snapshot struct {
	Config    map[string]any     `json:"config"`
	Requests  int                `json:"requests"`
	Errors    int                `json:"errors"`
	Statuses  map[string]int     `json:"statuses"`
	Rps       float64            `json:"throughput_rps"`
	LatencyMs map[string]float64 `json:"latency_ms"`
	CacheHits int                `json:"cache_hits"`
	CacheMiss int                `json:"cache_misses"`
	HitRate   float64            `json:"cache_hit_rate"`
	// Cold summarizes the no-cache-key phase: every request misses the
	// compiled-artifact cache, so throughput here is bounded by the front
	// end (fused translate+ground) plus compilation, not cache lookups.
	Cold map[string]float64 `json:"cold,omitempty"`
	// Tenants summarizes the -tenants mode: distinct tenants, the Zipf skew,
	// per-tenant request counts, and how many requests the server's
	// fairness quota shed.
	Tenants map[string]any `json:"tenants,omitempty"`
	// ServerLatency is the server's own server.latency_ms histogram at the
	// end of the run: cumulative buckets, sum, and count, measured inside
	// the handler rather than at the client.
	ServerLatency *benchutil.Histogram `json:"server_latency_ms,omitempty"`
}

// zipfPicker samples indices from a Zipf distribution (weight of index i is
// 1/(i+1)^s) over a fixed keyspace — the skewed multi-tenant workload: a
// hot head of tenants and keys, a long cold tail.
type zipfPicker struct {
	cum []float64 // cumulative weights, normalised to cum[len-1] == 1
}

func newZipfPicker(n int, s float64) *zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipfPicker{cum: cum}
}

func (z *zipfPicker) pick(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// load runs one measured phase. With jitter, every request draws a unique
// seed (guaranteed cache miss — the cold path); otherwise clients cycle the
// warm keyspace and the cache is pre-warmed first. With -tenants, the
// keyspace is tenants×keys wide, requests carry tenant identities, and
// (tenant, key) indices are drawn tenant-major from a Zipf distribution —
// tenant t00 with the hot keys at the head, a long cold tail behind.
func load(addr string, dur time.Duration, jitter bool) snapshot {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *cFlag}}

	keyspace := *keysFlag
	var zipf *zipfPicker
	if *tenantsFlag > 0 {
		keyspace = *tenantsFlag * *keysFlag
		zipf = newZipfPicker(keyspace, *zipfFlag)
	}
	if !jitter {
		// Warm the cache with one request per key so the measured window
		// sees the steady state, matching a long-lived server's behaviour.
		for key := 0; key < keyspace; key++ {
			post(client, addr, request(int64(key+1)))
		}
	}
	// pick maps one request slot onto (seed, tenant).
	pick := func(c, i int, rng *rand.Rand) (int64, string) {
		if jitter {
			return coldSeedBase + coldSeq.Add(1), ""
		}
		if zipf != nil {
			idx := zipf.pick(rng)
			return int64(idx + 1), fmt.Sprintf("t%02d", idx / *keysFlag)
		}
		return int64((c+i)%keyspace + 1), ""
	}

	var (
		mu      sync.Mutex
		samples []sample
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *cFlag; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; time.Now().Before(deadline); i++ {
				seed, tenant := pick(c, i, rng)
				req := request(seed)
				req.Tenant = tenant
				lat, status, cache := post(client, addr, req)
				mu.Lock()
				samples = append(samples, sample{lat, status, cache, tenant})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := snapshot{
		Config: map[string]any{
			"concurrency": *cFlag, "duration": dur.String(), "keys": *keysFlag,
			"program": "kmedoids", "n": *nFlag, "vars": *varsFlag,
			"no_cache_key": jitter,
		},
		Statuses:  map[string]int{},
		LatencyMs: map[string]float64{},
	}
	perTenant := map[string]int{}
	var lats []time.Duration
	for _, s := range samples {
		snap.Requests++
		snap.Statuses[fmt.Sprintf("%d", s.status)]++
		if s.tenant != "" {
			perTenant[s.tenant]++
		}
		switch {
		case s.status == http.StatusOK:
			lats = append(lats, s.latency)
			if s.cache == "hit" {
				snap.CacheHits++
			} else {
				snap.CacheMiss++
			}
		case s.status == 0:
			snap.Errors++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	snap.Rps = float64(len(lats)) / elapsed.Seconds()
	snap.LatencyMs["p50"] = benchutil.Percentile(lats, 50)
	snap.LatencyMs["p95"] = benchutil.Percentile(lats, 95)
	snap.LatencyMs["p99"] = benchutil.Percentile(lats, 99)
	snap.LatencyMs["p999"] = benchutil.Percentile(lats, 99.9)
	if ok := snap.CacheHits + snap.CacheMiss; ok > 0 {
		snap.HitRate = float64(snap.CacheHits) / float64(ok)
	}
	if zipf != nil {
		snap.Config["tenants"] = *tenantsFlag
		snap.Config["zipf_s"] = *zipfFlag
		snap.Tenants = map[string]any{
			"distinct":            len(perTenant),
			"requests_by_tenant":  perTenant,
			"throttled_429":       snap.Statuses["429"],
			"server_throttled":    benchutil.FetchCounter(addr, "server.tenant.throttled"),
			"server_batch_joined": benchutil.FetchCounter(addr, "server.batch.joined"),
		}
	}
	return snap
}

// coldSummary flattens a cold-phase snapshot into the "cold" section.
func coldSummary(s snapshot) map[string]float64 {
	return map[string]float64{
		"requests":        float64(s.Requests),
		"throughput_rps":  s.Rps,
		"latency_ms_p50":  s.LatencyMs["p50"],
		"latency_ms_p95":  s.LatencyMs["p95"],
		"latency_ms_p99":  s.LatencyMs["p99"],
		"latency_ms_p999": s.LatencyMs["p999"],
		"cache_hit_rate":  s.HitRate,
	}
}

// whatifSpeedupFloor is the acceptance gate of the what-if benchmark: one
// circuit replay must beat one warm recompilation by at least this factor.
const whatifSpeedupFloor = 5.0

// whatifSteps is the sweep grid size of the benchmark.
const whatifSteps = 32

// benchWhatifData is the benchmark workload: the kmedoids benchmark
// configuration (n=24, vars=10, k=2, iter=3), whose exact compile costs
// tens of milliseconds — enough to make the replay-vs-recompile contrast
// meaningful.
func benchWhatifData() (server.DataSpec, server.ParamSpec) {
	return server.DataSpec{N: 24, Vars: 10, L: 8, Seed: 1}, server.ParamSpec{K: 2, Iter: 3}
}

// postWhatif sends one what-if sweep and returns the decoded response.
func postWhatif(client *http.Client, addr string) (time.Duration, int, server.WhatifResponse, error) {
	data, params := benchWhatifData()
	body, err := json.Marshal(server.WhatifRequest{
		Program: "kmedoids", Data: data, Params: params, Steps: whatifSteps,
	})
	if err != nil {
		return 0, 0, server.WhatifResponse{}, err
	}
	start := time.Now()
	resp, err := client.Post("http://"+addr+"/v1/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(start), 0, server.WhatifResponse{}, err
	}
	defer resp.Body.Close()
	var out server.WhatifResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	return time.Since(start), resp.StatusCode, out, err
}

// runReply is what the smoke check and the what-if baseline read from a
// /v1/run response.
type runReply struct {
	Cache      string `json:"cache"`
	ServedFrom string `json:"served_from"`
	TimingsMs  struct {
		Compile float64 `json:"compile"`
	} `json:"timings_ms"`
}

// postRunReply sends one run request; anything but a 200 is an error.
func postRunReply(client *http.Client, addr string, req server.RunRequest) (runReply, error) {
	var out runReply
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("run: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// benchWhatif measures the circuit serving mode: one cold sweep (pays the
// trace), warmRuns warm sweeps (replay only — verified against the server's
// circuit.cache.hits counter), and a recompilation baseline of hybrid
// /v1/run requests at a negligible ε on the same artifact (cache hit, so
// each pays exactly one compile; exact requests no longer compile on a hit —
// they replay the very circuit under test). It fails when a warm sweep
// recompiled or when a per-point replay is not at least whatifSpeedupFloor×
// faster than a recompile.
func benchWhatif(addr string) error {
	const warmRuns = 8
	client := &http.Client{}

	coldLat, status, cold, err := postWhatif(client, addr)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("cold whatif: status %d err %v", status, err)
	}
	if cold.Circuit.Cached {
		return fmt.Errorf("cold whatif reported a cached circuit")
	}
	if !cold.Circuit.Complete {
		return fmt.Errorf("cold whatif circuit is incomplete")
	}

	var warmEvalMs, warmLatMs []float64
	for i := 0; i < warmRuns; i++ {
		lat, status, warm, err := postWhatif(client, addr)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm whatif %d: status %d err %v", i, status, err)
		}
		if !warm.Circuit.Cached {
			return fmt.Errorf("warm whatif %d recompiled the circuit", i)
		}
		warmEvalMs = append(warmEvalMs, warm.Circuit.EvalMs)
		warmLatMs = append(warmLatMs, float64(lat)/float64(time.Millisecond))
	}
	if hits := benchutil.FetchCounter(addr, "circuit.cache.hits"); hits != warmRuns {
		return fmt.Errorf("circuit.cache.hits = %g after %d warm sweeps, want %d (warm sweeps must not recompile)",
			hits, warmRuns, warmRuns)
	}

	// Recompilation baseline: the artifact is cached, so each approximate
	// /v1/run pays one compile and nothing else — what each sweep point
	// would cost without the circuit.
	data, params := benchWhatifData()
	baseline := server.RunRequest{
		Program: "kmedoids", Data: data, Params: params,
		Strategy: "hybrid", Epsilon: 1e-12,
	}
	var compileMs []float64
	for i := 0; i < warmRuns; i++ {
		rr, err := postRunReply(client, addr, baseline)
		if err != nil {
			return fmt.Errorf("recompile baseline %d: %v", i, err)
		}
		if rr.Cache != "hit" || rr.ServedFrom != "compile" {
			return fmt.Errorf("recompile baseline %d: cache %q served_from %q, want hit/compile", i, rr.Cache, rr.ServedFrom)
		}
		compileMs = append(compileMs, rr.TimingsMs.Compile)
	}

	recompile := benchutil.Median(compileMs)
	evalSweep := benchutil.Median(warmEvalMs)
	evalPoint := evalSweep / whatifSteps
	speedup := recompile / evalPoint

	out := map[string]any{
		"workload": map[string]any{
			"program": "kmedoids", "n": data.N, "vars": data.Vars, "l": data.L,
			"k": params.K, "iter": params.Iter, "steps": whatifSteps,
		},
		"circuit": map[string]any{
			"nodes": cold.Circuit.Nodes, "events": cold.Circuit.Events,
			"trace_ms": cold.Circuit.TraceMs,
		},
		"cold_sweep_ms":        float64(coldLat) / float64(time.Millisecond),
		"warm_sweep_ms_p50":    benchutil.Median(warmLatMs),
		"eval_ms_per_sweep":    evalSweep,
		"eval_ms_per_point":    evalPoint,
		"recompile_ms":         recompile,
		"speedup_per_point":    speedup,
		"speedup_floor":        whatifSpeedupFloor,
		"warm_sweeps":          warmRuns,
		"circuit_cache_hits":   warmRuns,
		"circuit_cache_misses": 1,
	}
	if err := benchutil.WriteJSON(*outFlag, out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: trace %.1fms, eval %.3fms/point (%.2fms/sweep of %d), recompile %.1fms, speedup %.0f×\n",
		*outFlag, cold.Circuit.TraceMs, evalPoint, evalSweep, whatifSteps, recompile, speedup)
	if speedup < whatifSpeedupFloor {
		return fmt.Errorf("speedup %.1f× below the %.0f× floor", speedup, whatifSpeedupFloor)
	}
	return nil
}

// smoke is the CI check: two identical requests — the first prepares and
// traces, the second must hit the artifact cache and be answered from the
// memoized circuit in under a millisecond of compile time — and the server
// must drain cleanly afterwards.
func smoke(addr string) error {
	client := &http.Client{}
	req := request(1)
	first, err := postRunReply(client, addr, req)
	if err != nil {
		return fmt.Errorf("first request: %v", err)
	}
	if first.Cache != "miss" || first.ServedFrom != "trace" {
		return fmt.Errorf("first request: cache %q served_from %q, want miss/trace", first.Cache, first.ServedFrom)
	}
	second, err := postRunReply(client, addr, req)
	if err != nil {
		return fmt.Errorf("second request: %v", err)
	}
	if second.Cache != "hit" || second.ServedFrom != "circuit" {
		return fmt.Errorf("second request: cache %q served_from %q, want hit/circuit", second.Cache, second.ServedFrom)
	}
	if second.TimingsMs.Compile >= 1 {
		return fmt.Errorf("second request: timings_ms.compile = %.3f on a circuit hit, want < 1", second.TimingsMs.Compile)
	}
	fmt.Printf("smoke ok: miss/trace (compile %.2fms) then hit/circuit (compile %.4fms)\n",
		first.TimingsMs.Compile, second.TimingsMs.Compile)
	return nil
}

func main() {
	flag.Parse()

	// The shard modes spawn their own process fleets; no in-process server.
	if *shardSweepFl {
		if err := runShardSweep(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: shard-sweep:", err)
			os.Exit(1)
		}
		return
	}
	if *shardSmokeFl {
		if err := runShardSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: shard-smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *streamSmokeFl {
		if err := runStreamSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: stream-smoke:", err)
			os.Exit(1)
		}
		return
	}

	addr, stop, err := ensureServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	if *smokeFlg {
		err := smoke(addr)
		stop() // the drain is part of the smoke check
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: smoke:", err)
			os.Exit(1)
		}
		return
	}
	if *whatifFl {
		err := benchWhatif(addr)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: whatif:", err)
			os.Exit(1)
		}
		return
	}
	if *streamFl {
		err := benchStream(addr)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: stream:", err)
			os.Exit(1)
		}
		return
	}

	snap := load(addr, *durFlag, *coldFlag)
	if !*coldFlag {
		// Follow the warm run with a half-duration cold phase so the
		// snapshot always records cold-request throughput too.
		cold := load(addr, *durFlag/2, true)
		snap.Cold = coldSummary(cold)
	}
	snap.ServerLatency = benchutil.FetchHistogram(addr, "server.latency_ms")
	stop()

	if err := benchutil.WriteJSON(*outFlag, snap); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d requests, %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms p999 %.1fms, hit rate %.1f%%",
		*outFlag, snap.Requests, snap.Rps,
		snap.LatencyMs["p50"], snap.LatencyMs["p95"], snap.LatencyMs["p99"],
		snap.LatencyMs["p999"], snap.HitRate*100)
	if snap.Cold != nil {
		fmt.Printf("; cold %.0f req/s p95 %.1fms", snap.Cold["throughput_rps"], snap.Cold["latency_ms_p95"])
	}
	fmt.Println()
}
