package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startTestServer boots a server on an ephemeral port and tears it down
// with the test.
func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// smallRequest is a quickly-compiling kmedoids run; vary seed/n for
// distinct cache keys.
func smallRequest(seed int64, n int) RunRequest {
	return RunRequest{
		Program: "kmedoids",
		Data:    DataSpec{N: n, Vars: 5, L: 4, Seed: seed},
		Params:  ParamSpec{K: 2, Iter: 2},
	}
}

// postRun POSTs a request and decodes the response, failing the test on
// transport errors.
func postRun(t *testing.T, client *http.Client, addr string, req RunRequest) (int, RunResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, buf.Bytes())
		}
	}
	return resp.StatusCode, out, buf.Bytes()
}

func counterValue(s *Server, name string) int64 {
	return s.reg.Counter(name).Value()
}

func TestRunMissThenHit(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	status, first, firstRaw := postRun(t, client, s.Addr(), smallRequest(1, 8))
	if status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	if first.Cache != "miss" {
		t.Fatalf("first request: cache = %q, want miss", first.Cache)
	}
	if len(first.Targets) == 0 {
		t.Fatal("first request: no targets")
	}

	status, second, secondRaw := postRun(t, client, s.Addr(), smallRequest(1, 8))
	if status != http.StatusOK {
		t.Fatalf("second request: status %d", status)
	}
	if second.Cache != "hit" {
		t.Fatalf("second request: cache = %q, want hit", second.Cache)
	}

	// The marginals of hit and miss must agree byte for byte.
	var a, b struct {
		Targets json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal(firstRaw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(secondRaw, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Targets, b.Targets) {
		t.Errorf("cache hit changed marginals:\nmiss: %s\nhit:  %s", a.Targets, b.Targets)
	}

	if hits, misses := counterValue(s, "server.cache.hits"), counterValue(s, "server.cache.misses"); hits != 1 || misses != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// A different strategy on the same (program, data, targets) still hits:
	// compile parameters are not part of the artifact key.
	req := smallRequest(1, 8)
	req.Strategy = "hybrid"
	req.Epsilon = 0.1
	status, third, _ := postRun(t, client, s.Addr(), req)
	if status != http.StatusOK || third.Cache != "hit" {
		t.Errorf("hybrid on cached key: status=%d cache=%q, want 200/hit", status, third.Cache)
	}
}

func TestSustains64ConcurrentInflight(t *testing.T) {
	const want = 64
	// Cleanup order (LIFO): unblock the barrier, then the server drains,
	// then the hook is uninstalled — so no handler can race the reset.
	t.Cleanup(func() { testHookInflight = nil })
	s := startTestServer(t, Config{MaxInflight: want, QueueDepth: 16})
	release := make(chan struct{})
	var relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	// Barrier: every request blocks inside its worker slot until all of
	// them hold one simultaneously — deterministic proof of `want`
	// concurrent in-flight requests, independent of compile speed.
	var mu sync.Mutex
	arrived := 0
	testHookInflight = func() {
		mu.Lock()
		arrived++
		n := arrived
		mu.Unlock()
		if n == want {
			unblock()
		}
		<-release
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: want}}
	var wg sync.WaitGroup
	statuses := make([]int, want)
	for i := 0; i < want; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _ := postRun(t, client, s.Addr(), smallRequest(int64(i+1), 6))
			statuses[i] = status
		}(i)
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Errorf("request %d: status %d", i, status)
		}
	}
	if peak := s.reg.Gauge("server.inflight.peak").Value(); peak < want {
		t.Errorf("peak in-flight %v, want ≥ %d", peak, want)
	}
}

func TestConcurrentMixedKeysHammerCache(t *testing.T) {
	// Cache capacity 3 with 8 distinct keys forces constant eviction and
	// re-preparation while goroutines race on the LRU and the coalescing
	// map.
	s := startTestServer(t, Config{MaxInflight: 8, QueueDepth: 512, CacheEntries: 3})
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	reqs := make([]RunRequest, 0, 8)
	for _, program := range []string{"kmedoids", "kmeans"} {
		for _, n := range []int{6, 7} {
			for _, seed := range []int64{1, 2} {
				r := smallRequest(seed, n)
				r.Program = program
				if program == "kmeans" {
					// kmeans has no Centre variable; InCl is its
					// Boolean cluster-membership matrix.
					r.Targets = []string{"InCl["}
				}
				reqs = append(reqs, r)
			}
		}
	}

	const goroutines, perG = 32, 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := reqs[(g+i)%len(reqs)]
				status, out, raw := postRun(t, client, s.Addr(), req)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("goroutine %d: status %d: %s", g, status, raw)
					return
				}
				if out.Cache != "hit" && out.Cache != "miss" {
					errs <- fmt.Sprintf("goroutine %d: cache = %q", g, out.Cache)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if got := gaugeValue(s, "server.cache.size"); got > 3 {
		t.Errorf("cache grew past its bound: %g entries", got)
	}
	total := int64(goroutines * perG)
	hits := counterValue(s, "server.cache.hits")
	misses := counterValue(s, "server.cache.misses")
	if hits+misses != total {
		t.Errorf("cache accounting: hits=%d + misses=%d != %d requests", hits, misses, total)
	}
	if misses < 8 {
		t.Errorf("misses=%d, want ≥ 8 (one per distinct key)", misses)
	}
}

func TestGracefulShutdown(t *testing.T) {
	cfg := Config{Addr: "127.0.0.1:0", MaxInflight: 2}
	t.Cleanup(func() { testHookInflight = nil })
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Ensure the server is down (idempotent) before the hook reset runs.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	// Hold one request in flight, blocked inside its worker slot.
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	var hookOnce sync.Once
	testHookInflight = func() {
		hookOnce.Do(func() { close(inFlight) })
		<-release
	}

	client := &http.Client{}
	type result struct {
		status int
		cache  string
	}
	done := make(chan result, 1)
	go func() {
		status, out, _ := postRun(t, client, s.Addr(), smallRequest(1, 6))
		done <- result{status, out.Cache}
	}()
	<-inFlight

	// Begin the drain while that request is still executing.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected with 503 while draining (exercised through the
	// handler directly: the TCP listener is already closed to new
	// connections).
	body, _ := json.Marshal(smallRequest(2, 6))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", rec.Code)
	}
	if got := counterValue(s, "server.rejected.draining"); got < 1 {
		t.Errorf("rejected.draining = %d, want ≥ 1", got)
	}

	// Health flips to draining too.
	recH := httptest.NewRecorder()
	s.Handler().ServeHTTP(recH, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if recH.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", recH.Code)
	}

	// The in-flight request completes normally once unblocked, and only
	// then does Shutdown return.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned before in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	if r := <-done; r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", r.status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestShutdownWithoutStart: a handler-only server (New without Start, as
// httptest embeddings use it) shuts down promptly instead of waiting on a
// serve loop that never ran.
func TestShutdownWithoutStart(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", rec.Code)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown of a server that never started is still blocked 5 s in, past its 1 s deadline")
	}
}

func TestDeadlineExceededReturns504WithoutLeaking(t *testing.T) {
	s := startTestServer(t, Config{MaxInflight: 8})
	client := &http.Client{}

	// Warm up the transport and the pipeline once so the baseline includes
	// keep-alive machinery.
	if status, _, _ := postRun(t, client, s.Addr(), smallRequest(1, 6)); status != http.StatusOK {
		t.Fatalf("warm-up: status %d", status)
	}
	runtime.GC()
	before := runtime.NumGoroutine()

	// A 1 ms hard deadline cannot cover even the smallest pipeline; the
	// heavy variable pool makes exact compilation long enough that the
	// cancellation necessarily lands mid-flight.
	heavy := RunRequest{
		Program:   "kmedoids",
		Data:      DataSpec{N: 24, Vars: 18, L: 8, Seed: 7},
		Params:    ParamSpec{K: 2, Iter: 3},
		TimeoutMs: 1,
	}
	for i, workers := range []int{1, 4, 1} {
		req := heavy
		req.Workers = workers
		status, _, raw := postRun(t, client, s.Addr(), req)
		if status != http.StatusGatewayTimeout {
			t.Fatalf("deadline run %d (workers=%d): status %d, want 504: %s", i, workers, status, raw)
		}
	}
	if got := counterValue(s, "server.deadline_exceeded"); got != 3 {
		t.Errorf("deadline_exceeded = %d, want 3", got)
	}

	// All compilation workers and cancellation watchers must unwind.
	deadline := time.Now().Add(5 * time.Second)
	slack := 8
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+slack {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d (slack %d)", before, runtime.NumGoroutine(), slack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAdmissionRejectsWhenQueueFull(t *testing.T) {
	// One worker slot, one queue slot; with both pinned by the hook, the
	// third request must bounce with 429 immediately.
	t.Cleanup(func() { testHookInflight = nil })
	s := startTestServer(t, Config{MaxInflight: 1, QueueDepth: 1})
	release := make(chan struct{})
	var relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	testHookInflight = func() { <-release }

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, _, _ := postRun(t, client, s.Addr(), smallRequest(int64(i), 6))
			results <- status
		}(i)
	}
	// Wait until both of the first two requests are admitted (one
	// executing, one queued).
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queueSlots) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("first two requests were not admitted in time")
		}
		time.Sleep(time.Millisecond)
	}

	status, _, raw := postRun(t, client, s.Addr(), smallRequest(99, 6))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429: %s", status, raw)
	}
	if got := counterValue(s, "server.rejected.queue_full"); got != 1 {
		t.Errorf("rejected.queue_full = %d, want 1", got)
	}

	unblock()
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("admitted request: status %d, want 200", status)
		}
	}
}

func TestBadRequests(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	cases := []struct {
		name string
		req  RunRequest
		want string // substring of the error
	}{
		{"unknown program", RunRequest{Program: "exfiltrate.py"}, "unknown builtin program"},
		{"unknown strategy", RunRequest{Strategy: "banana"}, "unknown strategy"},
		{"bad scheme", RunRequest{Data: DataSpec{Scheme: "spooky"}}, "unknown correlation scheme"},
		{"workers cap", RunRequest{Workers: 1000}, "workers"},
		{"bad order", RunRequest{Order: "random"}, "order"},
		{"bad target", RunRequest{Targets: []string{"NoSuchVar["}}, "target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postRun(t, client, s.Addr(), tc.req)
			if status != http.StatusBadRequest && status != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 400/422: %s", status, raw)
			}
			if !bytes.Contains(raw, []byte(tc.want)) {
				t.Errorf("error %s does not mention %q", raw, tc.want)
			}
		})
	}

	resp, err := client.Get("http://" + s.Addr() + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	resp, err := client.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	if status, _, _ := postRun(t, client, s.Addr(), smallRequest(1, 6)); status != http.StatusOK {
		t.Fatalf("run: status %d", status)
	}

	resp, err = client.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"server_requests ", "server_cache_misses ", "server_latency_ms_ok_bucket"} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Errorf("/metrics prometheus output lacks %q:\n%s", want, text.String())
		}
	}

	resp, err = client.Get("http://" + s.Addr() + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var values []map[string]any
	err = json.NewDecoder(resp.Body).Decode(&values)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if len(values) == 0 {
		t.Error("metrics JSON is empty")
	}
}
