package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"enframe/internal/server"
)

// startShard boots one enframe serve process-equivalent on an ephemeral
// port.
func startShard(t *testing.T) *server.Server {
	t.Helper()
	s := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func startRouter(t *testing.T, shards []string, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Shards = shards
	rt := NewRouter(cfg)
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return rt, srv
}

func runBody(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	body, err := json.Marshal(server.RunRequest{
		Program: "kmedoids",
		Data:    server.DataSpec{N: n, Vars: 5, L: 4, Seed: seed},
		Params:  server.ParamSpec{K: 2, Iter: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post sends a body to a URL and returns status, the X-Shard header, and the
// response bytes.
func post(t *testing.T, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Shard"), buf.Bytes()
}

func targetsOf(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v struct {
		Targets json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, raw)
	}
	return v.Targets
}

// TestRouterRoutesByArtifactKey is the tentpole contract: repeated requests
// for one artifact land on one shard (where the second is a cache hit), and
// routed marginals are byte-identical to a standalone single-node server.
func TestRouterRoutesByArtifactKey(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	single := startShard(t)
	_, router := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	body := runBody(t, 1, 8)
	status, shardA, first := post(t, router.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("first routed request: status %d: %s", status, first)
	}
	status, shardB, second := post(t, router.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("second routed request: status %d", status)
	}
	if shardA == "" || shardA != shardB {
		t.Fatalf("same artifact routed to different shards: %q vs %q", shardA, shardB)
	}
	var c1, c2 struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(first, &c1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &c2); err != nil {
		t.Fatal(err)
	}
	if c1.Cache != "miss" || c2.Cache != "hit" {
		t.Errorf("cache dispositions %q/%q, want miss/hit — routing did not keep the artifact on one shard", c1.Cache, c2.Cache)
	}

	status, _, direct := post(t, "http://"+single.Addr()+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("direct request: status %d", status)
	}
	if !bytes.Equal(targetsOf(t, first), targetsOf(t, direct)) {
		t.Errorf("routed marginals differ from single-node:\nrouted: %s\ndirect: %s",
			targetsOf(t, first), targetsOf(t, direct))
	}
}

// TestRouterWhatifSharesRunPlacement: what-if traffic for an artifact lands
// on the same shard as its run traffic — they share the compiled artifact
// and the cached circuit.
func TestRouterWhatifSharesRunPlacement(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	_, router := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	run := runBody(t, 3, 8)
	status, runShard, raw := post(t, router.URL+"/v1/run", run)
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %s", status, raw)
	}
	whatif, err := json.Marshal(server.WhatifRequest{
		Program: "kmedoids",
		Data:    server.DataSpec{N: 8, Vars: 5, L: 4, Seed: 3},
		Params:  server.ParamSpec{K: 2, Iter: 2},
		Steps:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, whatifShard, raw := post(t, router.URL+"/v1/whatif", whatif)
	if status != http.StatusOK {
		t.Fatalf("whatif: status %d: %s", status, raw)
	}
	if runShard != whatifShard {
		t.Errorf("run and whatif for one artifact routed apart: %q vs %q", runShard, whatifShard)
	}
	var resp struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "hit" {
		t.Errorf("whatif artifact cache = %q, want hit (artifact was hot from the run)", resp.Cache)
	}
}

// TestRouterFailover: with the primary dead, requests fail over to the
// replica and still answer correctly.
func TestRouterFailover(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	single := startShard(t)
	rt, router := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	body := runBody(t, 5, 8)
	// Find and kill the primary for this key.
	status, primary, _ := post(t, router.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("warmup: status %d", status)
	}
	victim := s1
	if primary == s2.Addr() {
		victim = s2
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := victim.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	status, survivor, raw := post(t, router.URL+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", status, raw)
	}
	if survivor == primary {
		t.Fatalf("request answered by dead shard %q", survivor)
	}
	status, _, direct := post(t, "http://"+single.Addr()+"/v1/run", body)
	if status != http.StatusOK {
		t.Fatalf("direct: status %d", status)
	}
	if !bytes.Equal(targetsOf(t, raw), targetsOf(t, direct)) {
		t.Errorf("failover marginals differ from single-node")
	}
	if rt.reg.Counter("shard.route.failovers").Value() == 0 {
		t.Error("failover counter not incremented")
	}
}

// TestRouterValidatesBeforeForwarding: a request the shards would 400 at
// validation is rejected at the router without consuming shard capacity.
func TestRouterValidatesBeforeForwarding(t *testing.T) {
	s1 := startShard(t)
	rt, router := startRouter(t, []string{s1.Addr()}, RouterConfig{})

	status, _, _ := post(t, router.URL+"/v1/run", []byte(`{"strategy":"nonsense"}`))
	if status != http.StatusBadRequest {
		t.Fatalf("invalid strategy: status %d, want 400", status)
	}
	status, _, _ = post(t, router.URL+"/v1/run", []byte(`{not json`))
	if status != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", status)
	}
	if got := rt.reg.Counter("shard.route.forwards").Value(); got != 0 {
		t.Errorf("invalid requests were forwarded (%d)", got)
	}
	if got := rt.reg.Counter("shard.route.bad_request").Value(); got != 2 {
		t.Errorf("bad_request counter = %d, want 2", got)
	}

	// The router keys a request without generating its data, so a request
	// whose data is invalid reaches its shard, which answers 400; its key
	// is not tracked for warming.
	status, _, raw := post(t, router.URL+"/v1/run", []byte(`{"data":{"certain":2}}`))
	if status != http.StatusBadRequest {
		t.Fatalf("invalid data: status %d, want 400\n%s", status, raw)
	}
	if got := rt.reg.Gauge("shard.keys.tracked").Value(); got != 0 {
		t.Errorf("shard.keys.tracked = %g after a refused request, want 0", got)
	}
}

// TestRouterEmptyRing answers 503, not a panic.
func TestRouterEmptyRing(t *testing.T) {
	_, router := startRouter(t, nil, RouterConfig{})
	status, _, _ := post(t, router.URL+"/v1/run", runBody(t, 1, 8))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: status %d, want 503", status)
	}
}

// TestRouterSpreadsDistinctArtifacts: with enough distinct artifacts, more
// than one shard does work — the ring spreads the keyspace.
func TestRouterSpreadsDistinctArtifacts(t *testing.T) {
	s1, s2 := startShard(t), startShard(t)
	_, router := startRouter(t, []string{s1.Addr(), s2.Addr()}, RouterConfig{})

	hit := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		status, shard, raw := post(t, router.URL+"/v1/run", runBody(t, seed, 6))
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, raw)
		}
		hit[shard] = true
	}
	if len(hit) < 2 {
		t.Errorf("8 distinct artifacts all routed to one shard: %v", hit)
	}
}

// TestRouterTenantHeaderPropagates: the router forwards X-Tenant-Id, so
// shard-side quotas and accounting see the caller's identity.
func TestRouterTenantHeaderPropagates(t *testing.T) {
	s1 := startShard(t)
	_, router := startRouter(t, []string{s1.Addr()}, RouterConfig{})

	req, err := http.NewRequest(http.MethodPost, router.URL+"/v1/run", bytes.NewReader(runBody(t, 9, 6)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant-Id", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := s1.Registry().Counter("server.tenant.acme.requests").Value(); got != 1 {
		t.Errorf("shard-side tenant counter = %d, want 1 (header not propagated?)", got)
	}
}

// TestRouterTrackedKeysBounded: the router tracks no more keys than the
// fleet can cache — shards × server.DefaultCacheEntries — forgetting the
// least recently answered one, and a join still warms every key it kept.
func TestRouterTrackedKeysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("routes DefaultCacheEntries+1 cold runs")
	}
	s1, s2 := startShard(t), startShard(t)
	rt, router := startRouter(t, []string{s1.Addr()}, RouterConfig{})
	const n = 5
	limit := int64(server.DefaultCacheEntries) // one shard
	for seed := int64(1); seed <= limit+1; seed++ {
		if status, _, raw := post(t, router.URL+"/v1/run", runBody(t, seed, n)); status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, status, raw)
		}
	}
	if got := rt.reg.Gauge("shard.keys.tracked").Value(); got != float64(limit) {
		t.Fatalf("shard.keys.tracked = %g after %d keys on one shard, want the cap %d", got, limit+1, limit)
	}

	// Two replicas on two shards: the joined shard owns every key, so each
	// retained key is warmed onto it and the forgotten oldest one is not.
	_, warmed, err := rt.Join(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if warmed != int(limit) {
		t.Errorf("join warmed %d keys, want the %d retained", warmed, limit)
	}
	// The miss comes last: preparing it evicts from the joined shard's full
	// cache.
	for _, c := range []struct {
		seed int64
		want string
	}{{limit + 1, "hit"}, {2, "hit"}, {1, "miss"}} {
		seed, want := c.seed, c.want
		status, _, raw := post(t, "http://"+s2.Addr()+"/v1/run", runBody(t, seed, n))
		var resp struct {
			Cache string `json:"cache"`
		}
		if err := json.Unmarshal(raw, &resp); status != http.StatusOK || err != nil {
			t.Fatalf("seed %d on the joined shard: status %d: %s", seed, status, raw)
		}
		if resp.Cache != want {
			t.Errorf("seed %d on the joined shard: cache = %q, want %q", seed, resp.Cache, want)
		}
	}
}
