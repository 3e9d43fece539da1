package main

// The shard modes drive a real sharded fleet: `loadgen -shard-sweep` is the
// `make bench-shard` driver (shard-count scaling curves merged into
// BENCH_serve.json) and `loadgen -shard-smoke` is the `make shard-smoke` CI
// check (byte-identity through the router, join warming, kill-one-shard
// failover) — both against genuine enframe serve/route child processes.
//
// The container this benchmark runs in has a single CPU, so k co-located
// shard processes time-slice one core and real wall-clock throughput cannot
// scale with k. The scaling gate therefore uses a virtual partitioning
// model in the style of BENCH_distributed.json: measure real warm per-key
// service times, partition the keys across k shards with the real
// consistent-hash ring over the real artifact content hashes, and compute
// the fleet throughput as total-work / busiest-shard-busy-time. The real
// process fleets are still spun up and measured, and their numbers land in
// the snapshot as labeled single-CPU context.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"enframe/internal/benchutil"
	"enframe/internal/server"
	"enframe/internal/shard"
)

// shardSpeedupFloor is the bench-shard acceptance gate: the virtual
// partitioning model must show at least this warm-throughput factor at 4
// shards over 1.
const shardSpeedupFloor = 1.5

// shardSweepKeys is the keyspace of the scaling sweep — wide enough that the
// ring spreads it meaningfully over 4 shards.
const shardSweepKeys = 32

// shardCounts is the sweep grid.
var shardCounts = []int{1, 2, 4}

// rawRunResponse is the slice of a /v1/run response the shard drivers
// compare: the cache verdict plus the untouched target bytes, so
// byte-identity checks see exactly what the server wrote.
type rawRunResponse struct {
	status  int
	xShard  string
	cache   string
	targets json.RawMessage
}

// postRaw sends one run request and keeps the raw targets JSON.
func postRaw(client *http.Client, addr string, req server.RunRequest) (rawRunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return rawRunResponse{}, err
	}
	resp, err := client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return rawRunResponse{}, err
	}
	defer resp.Body.Close()
	var out struct {
		Cache   string          `json:"cache"`
		Targets json.RawMessage `json:"targets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
		return rawRunResponse{}, err
	}
	return rawRunResponse{
		status: resp.StatusCode, xShard: resp.Header.Get("X-Shard"),
		cache: out.Cache, targets: out.Targets,
	}, nil
}

// shutdownServer drains an in-process helper server.
func shutdownServer(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}

// artifactKeyOf computes the same artifact content hash the router and the
// shards use, so the drivers can reconstruct ring ownership externally.
func artifactKeyOf(req server.RunRequest) (string, error) {
	_, key, err := server.BuildSpec(req)
	return key, err
}

// spawnFleet starts n serve shards plus one router over them and returns
// (router, shards, stopAll).
func spawnFleet(bin string, n int) (*benchutil.Proc, []*benchutil.Proc, func(), error) {
	var shards []*benchutil.Proc
	stopAll := func() {
		for _, p := range shards {
			p.Stop()
		}
	}
	peers := ""
	for i := 0; i < n; i++ {
		p, err := benchutil.SpawnListen(bin, "serve", "-addr", "127.0.0.1:0", "-grace", "5s", "-access-log=false")
		if err != nil {
			stopAll()
			return nil, nil, nil, fmt.Errorf("spawn shard %d: %w", i, err)
		}
		shards = append(shards, p)
		if peers != "" {
			peers += ","
		}
		peers += p.Addr
	}
	router, err := benchutil.SpawnListen(bin, "route", "-addr", "127.0.0.1:0", "-shard-peers", peers, "-grace", "5s")
	if err != nil {
		stopAll()
		return nil, nil, nil, fmt.Errorf("spawn router: %w", err)
	}
	stop := func() {
		router.Stop()
		stopAll()
	}
	return router, shards, stop, nil
}

// calibrateServiceMs measures the warm per-key service time of every sweep
// key against an in-process server: warm each key once, then take the median
// of repeated cache-hit requests. These are the work weights the virtual
// partitioning model distributes.
func calibrateServiceMs() (map[string]float64, []string, error) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, nil, err
	}
	defer shutdownServer(srv)
	client := &http.Client{}

	const reps = 5
	service := make(map[string]float64, shardSweepKeys)
	var keys []string
	for i := 0; i < shardSweepKeys; i++ {
		req := request(int64(i + 1))
		key, err := artifactKeyOf(req)
		if err != nil {
			return nil, nil, fmt.Errorf("key %d: %w", i, err)
		}
		if _, status, _ := post(client, srv.Addr(), req); status != http.StatusOK {
			return nil, nil, fmt.Errorf("warm key %d: status %d", i, status)
		}
		var lats []float64
		for r := 0; r < reps; r++ {
			lat, status, cache := post(client, srv.Addr(), req)
			if status != http.StatusOK || cache != "hit" {
				return nil, nil, fmt.Errorf("measure key %d rep %d: status %d cache %q", i, r, status, cache)
			}
			lats = append(lats, benchutil.Ms(lat))
		}
		service[key] = benchutil.Median(lats)
		keys = append(keys, key)
	}
	return service, keys, nil
}

// virtualPartition computes the model throughput for k shards: assign every
// key to its primary on a k-shard ring (real hash, real ring), sum the
// per-shard service time, and bottleneck on the busiest shard.
func virtualPartition(service map[string]float64, keys []string, k int) map[string]any {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	ring := shard.NewRing(names, 0)
	busy := map[string]float64{}
	count := map[string]int{}
	total := 0.0
	for _, key := range keys {
		owner := ring.Owner(key)
		busy[owner] += service[key]
		count[owner]++
		total += service[key]
	}
	maxBusy := 0.0
	for _, b := range busy {
		if b > maxBusy {
			maxBusy = b
		}
	}
	keyCounts := make([]int, 0, k)
	for _, n := range names {
		keyCounts = append(keyCounts, count[n])
	}
	sort.Ints(keyCounts)
	return map[string]any{
		"shards":            k,
		"virtual_rps":       float64(len(keys)) / (maxBusy / 1000),
		"busiest_shard_ms":  maxBusy,
		"total_work_ms":     total,
		"keys_per_shard":    keyCounts,
		"speedup_vs_serial": total / maxBusy,
	}
}

// runShardSweep is `make bench-shard`: calibrate per-key warm service times,
// gate the virtual-partitioning scaling curve, measure real 1/2/4-process
// fleets as context, and merge the shard_scaling section into -out.
func runShardSweep() error {
	bin, cleanup, err := benchutil.BuildEnframe("")
	if err != nil {
		return err
	}
	defer cleanup()

	fmt.Fprintf(os.Stderr, "shard-sweep: calibrating %d per-key warm service times\n", shardSweepKeys)
	service, keys, err := calibrateServiceMs()
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}

	var virtual []map[string]any
	for _, k := range shardCounts {
		virtual = append(virtual, virtualPartition(service, keys, k))
	}
	baseRps := virtual[0]["virtual_rps"].(float64)
	var speedup4 float64
	for _, v := range virtual {
		rps := v["virtual_rps"].(float64)
		v["speedup_vs_1"] = rps / baseRps
		if v["shards"].(int) == 4 {
			speedup4 = rps / baseRps
		}
		fmt.Fprintf(os.Stderr, "shard-sweep: virtual %d shards: %.0f rps (%.2fx vs 1)\n",
			v["shards"], rps, rps/baseRps)
	}

	// Real process fleets: spin up k shards + router and push the same warm
	// keyspace through the front door. On this single-CPU container the k
	// processes share one core, so these numbers are recorded as context,
	// not gated.
	savedKeys, savedDur := *keysFlag, *durFlag
	*keysFlag = shardSweepKeys
	if *durFlag > 3*time.Second {
		*durFlag = 3 * time.Second
	}
	var real []map[string]any
	for _, k := range shardCounts {
		router, _, stop, err := spawnFleet(bin, k)
		if err != nil {
			*keysFlag, *durFlag = savedKeys, savedDur
			return err
		}
		snap := load(router.Addr, *durFlag, false)
		forwards := benchutil.FetchCounter(router.Addr, "shard.route.forwards")
		stop()
		real = append(real, map[string]any{
			"shards": k, "throughput_rps": snap.Rps, "hit_rate": snap.HitRate,
			"latency_ms_p50": snap.LatencyMs["p50"], "latency_ms_p95": snap.LatencyMs["p95"],
			"requests": snap.Requests, "errors": snap.Errors, "router_forwards": forwards,
		})
		fmt.Fprintf(os.Stderr, "shard-sweep: real %d-shard fleet: %.0f rps, hit rate %.1f%%\n",
			k, snap.Rps, snap.HitRate*100)
	}
	*keysFlag, *durFlag = savedKeys, savedDur

	section := map[string]any{
		"keys":           shardSweepKeys,
		"replicas":       shard.DefaultReplicas,
		"vnodes":         shard.DefaultVirtualNodes,
		"model":          "virtual partitioning: real warm per-key service times, keys placed by the real ring over real artifact hashes, fleet throughput = total work / busiest shard",
		"virtual":        virtual,
		"speedup_floor":  shardSpeedupFloor,
		"speedup_4_vs_1": speedup4,
		"real_fleet_single_cpu_context": map[string]any{
			"note":   "k co-located processes time-slice one core; wall-clock rps cannot scale here — recorded for latency/correctness context only",
			"sweeps": real,
		},
	}

	// Merge into the existing snapshot so bench-serve and bench-shard share
	// one BENCH_serve.json.
	doc := map[string]any{}
	if prev, err := os.ReadFile(*outFlag); err == nil {
		_ = json.Unmarshal(prev, &doc)
	}
	doc["shard_scaling"] = section
	if err := benchutil.WriteJSON(*outFlag, doc); err != nil {
		return err
	}
	fmt.Printf("wrote %s shard_scaling: virtual speedup at 4 shards %.2fx (floor %.1fx)\n",
		*outFlag, speedup4, shardSpeedupFloor)
	if speedup4 < shardSpeedupFloor {
		return fmt.Errorf("virtual 4-shard speedup %.2fx below the %.1fx floor", speedup4, shardSpeedupFloor)
	}
	return nil
}

// smokeSeeds is the keyspace of the shard smoke: wide enough that with
// replicas=2 over 3 shards, at least one key lands on the joined shard with
// overwhelming probability.
const smokeSeeds = 8

// runShardSmoke is `make shard-smoke`: real shard + router processes,
// byte-identity against a single in-process reference, membership join with
// cache-warming verified shard-side, and a kill-one-shard failover drill.
func runShardSmoke() error {
	bin, cleanup, err := benchutil.BuildEnframe("")
	if err != nil {
		return err
	}
	defer cleanup()
	client := &http.Client{}

	// Reference marginals from a plain single-node server — the fleet must
	// reproduce these byte for byte.
	ref := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := ref.Start(); err != nil {
		return err
	}
	defer shutdownServer(ref)
	want := map[int64]string{}
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		r, err := postRaw(client, ref.Addr(), request(seed))
		if err != nil || r.status != http.StatusOK {
			return fmt.Errorf("reference seed %d: status %d err %v", seed, r.status, err)
		}
		want[seed] = string(r.targets)
	}

	router, procs, stop, err := spawnFleet(bin, 2)
	if err != nil {
		return err
	}
	defer stop()

	// Byte-identity and placement stability through the router: same
	// marginals as the reference, second request a cache hit on the same
	// shard as the first.
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		first, err := postRaw(client, router.Addr, request(seed))
		if err != nil || first.status != http.StatusOK {
			return fmt.Errorf("seed %d via router: status %d err %v", seed, first.status, err)
		}
		if string(first.targets) != want[seed] {
			return fmt.Errorf("seed %d: routed marginals differ from single-node reference", seed)
		}
		second, err := postRaw(client, router.Addr, request(seed))
		if err != nil || second.status != http.StatusOK {
			return fmt.Errorf("seed %d second request: status %d err %v", seed, second.status, err)
		}
		if second.cache != "hit" {
			return fmt.Errorf("seed %d second request: cache %q, want hit (batching broken?)", seed, second.cache)
		}
		if second.xShard != first.xShard {
			return fmt.Errorf("seed %d moved shards without a membership change: %s then %s",
				seed, first.xShard, second.xShard)
		}
		if string(second.targets) != want[seed] {
			return fmt.Errorf("seed %d: warm routed marginals differ from reference", seed)
		}
	}
	fmt.Printf("shard-smoke: %d keys byte-identical through 2-shard fleet, placement stable\n", smokeSeeds)

	// Join drill: a third shard joins; the router must warm the keys the new
	// shard now owns before Join returns, so a direct cache probe on the new
	// shard hits.
	joined, err := benchutil.SpawnListen(bin, "serve", "-addr", "127.0.0.1:0", "-grace", "5s", "-access-log=false")
	if err != nil {
		return fmt.Errorf("spawn joining shard: %w", err)
	}
	defer joined.Stop()
	jbody, _ := json.Marshal(map[string]string{"addr": joined.Addr})
	jresp, err := client.Post("http://"+router.Addr+"/admin/join", "application/json", bytes.NewReader(jbody))
	if err != nil {
		return fmt.Errorf("admin/join: %w", err)
	}
	var jout struct {
		Moved  int `json:"moved"`
		Warmed int `json:"warmed"`
	}
	err = json.NewDecoder(jresp.Body).Decode(&jout)
	jresp.Body.Close()
	if err != nil || jresp.StatusCode != http.StatusOK {
		return fmt.Errorf("admin/join: status %d err %v", jresp.StatusCode, err)
	}

	// Reconstruct the ring the router now holds (same addresses, same
	// defaults) and probe the joined shard directly for every key it owns.
	fleet := []string{procs[0].Addr, procs[1].Addr, joined.Addr}
	ring := shard.NewRing(fleet, 0)
	warmHits := 0
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		key, err := artifactKeyOf(request(seed))
		if err != nil {
			return err
		}
		owned := false
		for _, o := range ring.Owners(key, shard.DefaultReplicas) {
			if o == joined.Addr {
				owned = true
			}
		}
		if !owned {
			continue
		}
		r, err := postRaw(client, joined.Addr, request(seed))
		if err != nil || r.status != http.StatusOK {
			return fmt.Errorf("probe joined shard seed %d: status %d err %v", seed, r.status, err)
		}
		if r.cache != "hit" {
			return fmt.Errorf("seed %d owned by joined shard but cold there: cache %q (warming broken)", seed, r.cache)
		}
		if string(r.targets) != want[seed] {
			return fmt.Errorf("seed %d: joined-shard marginals differ from reference", seed)
		}
		warmHits++
	}
	if warmHits == 0 {
		return fmt.Errorf("joined shard owns none of %d keys — cannot verify warming (warmed=%d)", smokeSeeds, jout.Warmed)
	}
	fmt.Printf("shard-smoke: join warmed %d keys, %d verified hot shard-side (moved=%d)\n",
		jout.Warmed, warmHits, jout.Moved)

	// Failover drill: SIGKILL the primary of seed 1 and require the router to
	// answer from a replica, byte-identically.
	key1, err := artifactKeyOf(request(1))
	if err != nil {
		return err
	}
	primary := ring.Owner(key1)
	for _, p := range append(procs, joined) {
		if p.Addr == primary {
			p.Kill()
		}
	}
	r, err := postRaw(client, router.Addr, request(1))
	if err != nil || r.status != http.StatusOK {
		return fmt.Errorf("post-kill seed 1: status %d err %v", r.status, err)
	}
	if r.xShard == primary {
		return fmt.Errorf("post-kill seed 1 answered by the killed shard %s", primary)
	}
	if string(r.targets) != want[1] {
		return fmt.Errorf("post-kill seed 1: failover marginals differ from reference")
	}
	if f := benchutil.FetchCounter(router.Addr, "shard.route.failovers"); f < 1 {
		return fmt.Errorf("shard.route.failovers = %g after killing %s, want ≥ 1", f, primary)
	}
	fmt.Printf("shard-smoke: killed primary %s, replica answered byte-identically\n", primary)
	return nil
}
