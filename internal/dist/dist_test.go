package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/obs"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// testResolver is the production wiring in miniature: the shipped spec is a
// server.RunRequest, resolved through the same BuildSpec that keys the
// server's artifact cache — so the worker-side content hash is the server's.
func testResolver(specJSON []byte) (core.Spec, string, error) {
	var req server.RunRequest
	if err := json.Unmarshal(specJSON, &req); err != nil {
		return core.Spec{}, "", err
	}
	return server.BuildSpec(req)
}

// genRequest is a small seeded generator workload (tiny networks, 1 or 2
// jobs) — enough for transport-level checks.
func genRequest(seed int64) server.RunRequest {
	return server.RunRequest{
		Data:     server.DataSpec{Kind: "gen", Seed: seed},
		Strategy: "exact",
	}
}

// sensorRequest is the fault-test workload: the kmedoids sensor pipeline
// over n points produces ~20 depth-1 jobs, so fault plans reliably fire
// mid-run.
func sensorRequest(n int) server.RunRequest {
	return server.RunRequest{
		Data:   server.DataSpec{Kind: "sensor", N: n},
		Params: server.ParamSpec{K: 2, Iter: 2, R: 2},
	}
}

func startWorker(t *testing.T, fault *dist.FaultPlan) *dist.Worker {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerConfig{
		Resolver: testResolver,
		Slots:    2,
		Fault:    fault,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := w.Serve(); err != nil {
			t.Logf("worker serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = w.Close() })
	return w
}

func newPool(t *testing.T, cfg dist.PoolConfig) *dist.Pool {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	p, err := dist.NewPool(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// runOverPool compiles one workload through the pool and returns the
// result plus the sequential reference computed in-process.
func runOverPool(t *testing.T, p *dist.Pool, req server.RunRequest, wo dist.WireOpts) (*prob.Result, *prob.Result) {
	t.Helper()
	specJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := wo.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Order = art.Order(opts.Heuristic)
	seq, err := prob.Compile(art.Net, opts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	exec := p.Session(key, specJSON, wo)
	got, err := prob.CompileExec(context.Background(), art.Net, opts, exec)
	if err != nil {
		t.Fatalf("CompileExec over pool: %v", err)
	}
	return got, seq
}

// runOverPoolObs is runOverPool with tracing wired through the compile, so
// trace tests see the distribute/job/ship span hierarchy plus any spliced
// remote subtrees.
func runOverPoolObs(t *testing.T, p *dist.Pool, req server.RunRequest, wo dist.WireOpts, tr *obs.Trace) *prob.Result {
	t.Helper()
	specJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := wo.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Order = art.Order(opts.Heuristic)
	opts.Obs = tr
	exec := p.Session(key, specJSON, wo)
	got, err := prob.CompileExec(context.Background(), art.Net, opts, exec)
	if err != nil {
		t.Fatalf("CompileExec over pool: %v", err)
	}
	return got
}

func assertBitIdentical(t *testing.T, got, want *prob.Result) {
	t.Helper()
	if len(got.Targets) != len(want.Targets) {
		t.Fatalf("target count %d vs %d", len(got.Targets), len(want.Targets))
	}
	for i, tb := range got.Targets {
		w := want.Targets[i]
		if math.Float64bits(tb.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(tb.Upper) != math.Float64bits(w.Upper) {
			t.Fatalf("target %s: distributed [%x, %x] vs sequential [%x, %x]",
				tb.Name,
				math.Float64bits(tb.Lower), math.Float64bits(tb.Upper),
				math.Float64bits(w.Lower), math.Float64bits(w.Upper))
		}
	}
}

// TestEndToEndByteIdentity ships jobs over real TCP to two worker processes'
// worth of state and asserts the merged marginals are bit-identical to the
// sequential compiler — the plane's core contract.
func TestEndToEndByteIdentity(t *testing.T) {
	w1, w2 := startWorker(t, nil), startWorker(t, nil)
	p := newPool(t, dist.PoolConfig{Addrs: []string{w1.Addr(), w2.Addr()}})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"}
	for _, seed := range []int64{1, 2, 3, 5} {
		got, seq := runOverPool(t, p, genRequest(seed), wo)
		assertBitIdentical(t, got, seq)
	}
	// The sensor pipeline exercises a real clustering network (many jobs).
	wo.JobDepth = 1
	got, seq := runOverPool(t, p, sensorRequest(12), wo)
	assertBitIdentical(t, got, seq)
}

// TestWorkerKillMidRun kills the first worker after two completed jobs (the
// second result is never sent and every connection drops). The run must
// finish bit-identically on the survivor, with at least one reassignment.
func TestWorkerKillMidRun(t *testing.T) {
	killed := make(chan struct{})
	w1 := startWorker(t, &dist.FaultPlan{KillAfterJobs: 2, OnKill: func() { close(killed) }})
	w2 := startWorker(t, nil)
	reg := newTestRegistry(t)
	p := newPool(t, dist.PoolConfig{
		Addrs:      []string{w1.Addr(), w2.Addr()},
		MaxRetries: 6,
		Reg:        reg,
	})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 1, Heuristic: "fanout"}
	got, seq := runOverPool(t, p, sensorRequest(12), wo)
	assertBitIdentical(t, got, seq)
	select {
	case <-killed:
	default:
		t.Fatal("fault plan never fired: the workload produced too few jobs to exercise the kill")
	}
	if p.AliveWorkers() != 1 {
		t.Fatalf("AliveWorkers = %d, want 1 after kill", p.AliveWorkers())
	}
	if v := reg.Counter("dist.jobs.reassigned").Value(); v == 0 {
		t.Fatal("no reassignment recorded after worker death")
	}
}

// TestWorkerKillBudgetReclaimed is the ε-contract half of the fault suite:
// a budgeted (hybrid) run loses a worker mid-stream, the coordinator
// re-ships the lost jobs with their original budgets, and the final bounds
// still satisfy Upper−Lower ≤ 2ε on every target.
func TestWorkerKillBudgetReclaimed(t *testing.T) {
	w1 := startWorker(t, &dist.FaultPlan{KillAfterJobs: 1})
	w2 := startWorker(t, nil)
	p := newPool(t, dist.PoolConfig{Addrs: []string{w1.Addr(), w2.Addr()}, MaxRetries: 6})
	const eps = 0.05
	wo := dist.WireOpts{Strategy: "hybrid", Epsilon: eps, JobDepth: 1, Heuristic: "fanout"}
	req := sensorRequest(12)
	specJSON, _ := json.Marshal(req)
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := wo.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Order = art.Order(opts.Heuristic)
	res, err := prob.CompileExec(context.Background(), art.Net, opts, p.Session(key, specJSON, wo))
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range res.Targets {
		if tb.Gap() > 2*eps+1e-9 {
			t.Fatalf("target %s: gap %g > 2ε after worker loss — budget leaked", tb.Name, tb.Gap())
		}
		if tb.Lower < -1e-12 || tb.Upper > 1+1e-12 || tb.Lower > tb.Upper {
			t.Fatalf("target %s: bounds [%g, %g] invalid", tb.Name, tb.Lower, tb.Upper)
		}
	}
}

// TestDroppedResultRecovery drops every Nth result frame while keeping the
// connection alive; the pool's job deadline must recover each loss by
// re-shipping, and re-execution must not perturb a bit.
func TestDroppedResultRecovery(t *testing.T) {
	w := startWorker(t, &dist.FaultPlan{DropEveryNth: 5})
	reg := newTestRegistry(t)
	p := newPool(t, dist.PoolConfig{
		Addrs:      []string{w.Addr()},
		JobTimeout: 250 * time.Millisecond,
		MaxRetries: 8,
		Reg:        reg,
	})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 1, Heuristic: "fanout"}
	got, seq := runOverPool(t, p, sensorRequest(12), wo)
	assertBitIdentical(t, got, seq)
	if reg.Counter("dist.jobs.retries").Value() == 0 {
		t.Fatal("no retries recorded despite dropped results")
	}
}

// TestAllWorkersDead kills every worker and asserts the compilation fails
// with a typed, retry-classifiable error instead of hanging.
func TestAllWorkersDead(t *testing.T) {
	w := startWorker(t, &dist.FaultPlan{KillAfterJobs: 1})
	p := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}, MaxRetries: 2})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 1, Heuristic: "fanout"}
	req := sensorRequest(12)
	specJSON, _ := json.Marshal(req)
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts, _ := wo.Options()
	opts.Order = art.Order(opts.Heuristic)
	done := make(chan error, 1)
	go func() {
		_, err := prob.CompileExec(context.Background(), art.Net, opts, p.Session(key, specJSON, wo))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("compilation succeeded with every worker dead")
		}
		if !errors.Is(err, prob.ErrExecutorUnavailable) {
			t.Fatalf("want error wrapping prob.ErrExecutorUnavailable, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("compilation hung after total worker loss")
	}
}

// TestVersionMismatchPoolSide connects the pool to a fake worker speaking a
// future protocol revision; NewPool must fail with a typed *VersionError.
func TestVersionMismatchPoolSide(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _, _ = dist.ReadFrame(c) // consume hello
		// Reply with a hand-rolled v2 header.
		_, _ = c.Write([]byte{0xE5, 0x46, dist.ProtocolVersion + 1, byte(dist.MsgHelloAck), 0, 0, 0, 0})
		time.Sleep(200 * time.Millisecond)
	}()
	_, err = dist.NewPool(context.Background(), dist.PoolConfig{Addrs: []string{ln.Addr().String()}})
	var ve *dist.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if !dist.IsProtocolError(err) {
		t.Fatal("version mismatch must classify as protocol error for the 502 path")
	}
}

// TestVersionMismatchWorkerSide sends a wrong-version hello to a real
// worker — once stamped with another revision in the frame header, once as a
// current frame whose hello names protocol v1 — and the worker must answer
// with a typed error frame, not hang.
func TestVersionMismatchWorkerSide(t *testing.T) {
	w := startWorker(t, nil)
	var v1Hello bytes.Buffer
	if err := dist.WriteFrame(&v1Hello, dist.MsgHello, []byte(`{"version":1,"name":"coordinator"}`)); err != nil {
		t.Fatal(err)
	}
	for name, first := range map[string][]byte{
		"header": {0xE5, 0x46, 99, byte(dist.MsgHello), 0, 0, 0, 0},
		"hello":  v1Hello.Bytes(),
	} {
		t.Run(name, func(t *testing.T) {
			c, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			_ = c.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := c.Write(first); err != nil {
				t.Fatal(err)
			}
			mt, payload, err := dist.ReadFrame(c)
			if err != nil {
				t.Fatalf("worker sent no error frame: %v", err)
			}
			if mt != dist.MsgError {
				t.Fatalf("want MsgError, got %v", mt)
			}
			var em struct {
				Code    string `json:"code"`
				Version int    `json:"version"`
			}
			if err := json.Unmarshal(payload, &em); err != nil {
				t.Fatal(err)
			}
			if em.Code != "version" || em.Version != dist.ProtocolVersion {
				t.Fatalf("error frame %+v, want code=version version=%d", em, dist.ProtocolVersion)
			}
		})
	}
}

// TestTruncatedFrameWorkerSide wedges nothing: a connection that dies
// mid-frame is dropped, and the worker keeps serving fresh connections.
func TestTruncatedFrameWorkerSide(t *testing.T) {
	w := startWorker(t, nil)
	c, err := net.DialTimeout("tcp", w.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte{0xE5, 0x46, dist.ProtocolVersion}) // header cut short
	_ = c.Close()

	// The worker must still answer a well-formed handshake afterwards.
	p := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}})
	if p.AliveWorkers() != 1 {
		t.Fatal("worker wedged by a truncated frame")
	}
}

// TestGoroutineCleanup runs a full distributed compile, tears everything
// down, and asserts the goroutine count returns to baseline — no leaked
// readers, heartbeats, or job handlers.
func TestGoroutineCleanup(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		w1, w2 := startWorker(t, nil), startWorker(t, nil)
		p := newPool(t, dist.PoolConfig{Addrs: []string{w1.Addr(), w2.Addr()}})
		wo := dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"}
		got, seq := runOverPool(t, p, genRequest(1), wo)
		assertBitIdentical(t, got, seq)
		_ = p.Close()
		_ = w1.Close()
		_ = w2.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), truncateStack(string(buf[:n])))
}

func truncateStack(s string) string {
	if lines := strings.Split(s, "\n"); len(lines) > 80 {
		return strings.Join(lines[:80], "\n") + "\n..."
	}
	return s
}

// TestSlotsAggregation checks the executor advertises the live capacity sum
// and degrades as workers die.
func TestSlotsAggregation(t *testing.T) {
	w1, w2 := startWorker(t, nil), startWorker(t, nil)
	p := newPool(t, dist.PoolConfig{Addrs: []string{w1.Addr(), w2.Addr()}})
	exec := p.Session("k", []byte(`{}`), dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"})
	if got := exec.Slots(); got != 4 {
		t.Fatalf("Slots = %d, want 4 (2 workers × 2 slots)", got)
	}
	_ = w1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for exec.Slots() != 2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := exec.Slots(); got != 2 {
		t.Fatalf("Slots = %d after one worker died, want 2", got)
	}
}

// TestLoadFailurePermanent ships a spec that does not resolve; the failure
// must surface as a permanent error (the job itself cannot run anywhere),
// not burn retries as a transport fault.
func TestLoadFailurePermanent(t *testing.T) {
	w := startWorker(t, nil)
	p := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}, MaxRetries: 2})
	exec := p.Session("bogus", []byte(`{"data":{"kind":"nope"}}`), dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"})
	_, err := exec.ExecuteJob(context.Background(), &prob.WireJob{ID: 1, P: 1})
	if err == nil {
		t.Fatal("want load failure")
	}
	if errors.Is(err, prob.ErrExecutorUnavailable) {
		t.Fatalf("load failure classified as retryable transport error: %v", err)
	}
}

// TestWorkerSurvivesPanickingLoad: a resolver that panics answers the load
// with a permanent error instead of killing the worker, which then serves
// other sessions — and, over the same pool, the failed one, which neither
// side kept.
func TestWorkerSurvivesPanickingLoad(t *testing.T) {
	var panics atomic.Bool
	panics.Store(true)
	w := startWorkerCfg(t, dist.WorkerConfig{Resolver: func(specJSON []byte) (core.Spec, string, error) {
		if panics.Load() {
			panic("resolver boom")
		}
		return testResolver(specJSON)
	}})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"}
	req := genRequest(1)
	specJSON, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	p := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}, MaxRetries: 2})
	_, err = p.Session(key, specJSON, wo).ExecuteJob(context.Background(), &prob.WireJob{ID: 1, P: 1})
	if err == nil || !strings.Contains(err.Error(), "resolver boom") {
		t.Fatalf("panicking load: err = %v, want the panic as the load error", err)
	}
	if errors.Is(err, prob.ErrExecutorUnavailable) {
		t.Fatalf("panicking load classified as retryable transport error: %v", err)
	}

	panics.Store(false)
	for _, req := range []server.RunRequest{genRequest(2), req} {
		got, seq := runOverPool(t, p, req, wo)
		assertBitIdentical(t, got, seq)
	}
}

// TestEvictedSessionReloads: a worker that holds one session at a time runs
// sessions A, B, A over one pool. Each run finds its session evicted (or
// never loaded), is answered "no session", and reloads it; every run is
// bit-identical to the sequential compile, and the worker loaded 3 times.
func TestEvictedSessionReloads(t *testing.T) {
	reg := newTestRegistry(t)
	w := startWorkerCfg(t, dist.WorkerConfig{MaxSessions: 1, Reg: reg})
	p := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}})
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"}
	for _, seed := range []int64{1, 2, 1} {
		got, seq := runOverPool(t, p, genRequest(seed), wo)
		assertBitIdentical(t, got, seq)
	}
	if got := reg.Counter("dist.worker.sessions").Value(); got != 3 {
		t.Fatalf("dist.worker.sessions = %d, want 3 (A, B, A reloaded)", got)
	}
}

func newTestRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	return obs.New("dist-test").Metrics()
}
