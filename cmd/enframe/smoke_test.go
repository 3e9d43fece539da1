package main

// Process drills: every TestSmoke* test spawns real enframe child processes
// (serve, worker, route) from a binary built once per test run and drives
// them the way an operator would — over HTTP, over TCP, or through the CLI.
// They assert behaviour, not speed, and skip under -short. Every child the
// drill stops with SIGTERM must exit 0: for serve and route that is a clean
// drain ("serve: drain:" and "route: drain:" exit 1).
//
//	go test ./cmd/enframe -run '^TestSmoke' -count=1 -v

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/shard"
	"enframe/internal/stream"
)

// smokeBin is the enframe binary the drills spawn, built on first use; its
// directory is removed by TestMain.
var smokeBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smokeBin.dir != "" {
		os.RemoveAll(smokeBin.dir)
	}
	os.Exit(code)
}

// enframeBin returns the path of an enframe binary built from this package
// with `go build`, skipping the calling drill under -short.
func enframeBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("process drill: spawns enframe child processes")
	}
	smokeBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "enframe-smoke")
		if err != nil {
			smokeBin.err = err
			return
		}
		smokeBin.dir = dir
		smokeBin.path = filepath.Join(dir, "enframe")
		cmd := exec.Command("go", "build", "-o", smokeBin.path, ".")
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			smokeBin.err = fmt.Errorf("build enframe: %w", err)
		}
	})
	if smokeBin.err != nil {
		t.Fatal(smokeBin.err)
	}
	return smokeBin.path
}

// child is one spawned enframe subcommand that announced its address.
type child struct {
	addr string
	cmd  *exec.Cmd
}

// spawn starts `enframe args...` — any subcommand that prints "LISTEN <addr>"
// on stdout once bound — and scrapes its address. The child's stderr passes
// through; stdout keeps draining so the child never blocks on a full pipe. A
// child the test has not reaped by the end is killed.
func spawn(t *testing.T, args ...string) *child {
	t.Helper()
	cmd := exec.Command(enframeBin(t), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	deadline := time.AfterFunc(30*time.Second, func() { _ = cmd.Process.Kill() })
	defer deadline.Stop()
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		var addr string
		if _, err := fmt.Sscanf(sc.Text(), "LISTEN %s", &addr); err == nil {
			go func() {
				for sc.Scan() {
				}
			}()
			return &child{addr: addr, cmd: cmd}
		}
	}
	t.Fatalf("enframe %v: no LISTEN line on stdout", args)
	return nil
}

// stop sends SIGTERM and waits for the child; the error is Wait's, so nil
// means it exited 0. A child still running after 30 s is killed.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	kill := time.AfterFunc(30*time.Second, func() { _ = c.cmd.Process.Kill() })
	defer kill.Stop()
	return c.cmd.Wait()
}

// kill SIGKILLs the child and reaps it — the failover drill's fault.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// stopAll stops each child in order and fails the test unless it exits 0.
func stopAll(t *testing.T, cs ...*child) {
	t.Helper()
	for _, c := range cs {
		if err := c.stop(); err != nil {
			t.Errorf("enframe %s on %s: exit after SIGTERM: %v", c.cmd.Args[1], c.addr, err)
		}
	}
}

// metric reads one counter or gauge off an enframe /metrics endpoint.
func metric(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vals []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vals); err != nil {
		t.Fatalf("%s /metrics: %v", addr, err)
	}
	for _, v := range vals {
		if v.Name == name {
			return v.Value
		}
	}
	t.Fatalf("%s /metrics has no %s", addr, name)
	return 0
}

// post sends v as JSON and returns the status, the X-Shard header and the
// body.
func post(t *testing.T, url string, v any) (int, string, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("X-Shard"), buf.Bytes()
}

// runReply is what the drills read from a /v1/run response; Targets keeps
// the bytes the server wrote, so identity checks compare exactly those.
type runReply struct {
	status     int
	shard      string
	Cache      string          `json:"cache"`
	ServedFrom string          `json:"served_from"`
	Targets    json.RawMessage `json:"targets"`
	TimingsMs  struct {
		Compile float64 `json:"compile"`
	} `json:"timings_ms"`
}

func postRun(t *testing.T, addr string, req server.RunRequest) runReply {
	t.Helper()
	var r runReply
	var raw []byte
	r.status, r.shard, raw = post(t, "http://"+addr+"/v1/run", req)
	if r.status == http.StatusOK {
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("/v1/run reply: %v", err)
		}
	}
	return r
}

// smokeRequest is the builtin kmedoids request the serve and shard drills
// send, one cache key per seed.
func smokeRequest(seed int64) server.RunRequest {
	return server.RunRequest{
		Program: "kmedoids",
		Data:    server.DataSpec{N: 10, Vars: 6, L: 6, Seed: seed},
		Params:  server.ParamSpec{K: 2, Iter: 2},
	}
}

func spawnServe(t *testing.T) *child {
	t.Helper()
	return spawn(t, "serve", "-addr", "127.0.0.1:0", "-grace", "5s", "-access-log=false")
}

// TestSmokeServe: two identical requests to a real server — the first
// prepares and traces, the second must hit the artifact cache and be answered
// from the memoized circuit in under a millisecond of compile time — then
// the server must drain cleanly.
func TestSmokeServe(t *testing.T) {
	srv := spawnServe(t)
	req := smokeRequest(1)
	first := postRun(t, srv.addr, req)
	if first.status != http.StatusOK || first.Cache != "miss" || first.ServedFrom != "trace" {
		t.Fatalf("first request: status %d cache %q served_from %q, want 200 miss/trace",
			first.status, first.Cache, first.ServedFrom)
	}
	second := postRun(t, srv.addr, req)
	if second.status != http.StatusOK || second.Cache != "hit" || second.ServedFrom != "circuit" {
		t.Fatalf("second request: status %d cache %q served_from %q, want 200 hit/circuit",
			second.status, second.Cache, second.ServedFrom)
	}
	if second.TimingsMs.Compile >= 1 {
		t.Errorf("second request: timings_ms.compile = %.3f on a circuit hit, want < 1", second.TimingsMs.Compile)
	}
	stopAll(t, srv)
}

// spawnWorker starts one `enframe worker` on an ephemeral port.
func spawnWorker(t *testing.T, extra ...string) *child {
	t.Helper()
	return spawn(t, append([]string{"worker", "-listen", "127.0.0.1:0", "-quiet"}, extra...)...)
}

func sameMarginals(got, want *prob.Result) error {
	if len(got.Targets) != len(want.Targets) {
		return fmt.Errorf("target count %d vs %d", len(got.Targets), len(want.Targets))
	}
	for i, g := range got.Targets {
		w := want.Targets[i]
		if g.Name != w.Name ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) {
			return fmt.Errorf("target %s: remote [%v,%v] vs local [%v,%v]",
				g.Name, g.Lower, g.Upper, w.Lower, w.Upper)
		}
	}
	return nil
}

// TestSmokeWorker compiles the builtin kmedoids workload over two real
// worker processes and requires the marginals to be byte-identical to the
// sequential in-process compile; then it repeats with a worker that kills
// itself mid-run and requires the survivor to absorb the jobs with the same
// bit-exact result.
func TestSmokeWorker(t *testing.T) {
	ctx := context.Background()
	req := server.RunRequest{
		Program:  "kmedoids",
		Data:     server.DataSpec{N: 12, Scheme: "positive", Vars: 10, L: 8, Seed: 1},
		Params:   server.ParamSpec{K: 2, Iter: 2},
		Strategy: "exact",
		JobDepth: 1,
	}
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(server.ArtifactRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	opts := prob.Options{Strategy: prob.Exact, JobDepth: req.JobDepth}
	opts.Order = art.Order(opts.Heuristic)
	local, err := prob.CompileCtx(ctx, art.Net, opts)
	if err != nil {
		t.Fatalf("local reference: %v", err)
	}

	// Pass 1: two healthy worker processes.
	w1, w2 := spawnWorker(t), spawnWorker(t)
	pool, err := dist.NewPool(ctx, dist.PoolConfig{Addrs: []string{w1.addr, w2.addr}})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := prob.CompileExec(ctx, art.Net, opts, pool.Session(key, specJSON, dist.FromOptions(opts)))
	pool.Close()
	if err != nil {
		t.Fatalf("remote compile: %v", err)
	}
	if err := sameMarginals(remote, local); err != nil {
		t.Fatalf("two-worker pass: %v", err)
	}

	// Pass 2: one worker kills itself after three jobs.
	wk := spawnWorker(t, "-fault-kill-after", "3")
	pool, err = dist.NewPool(ctx, dist.PoolConfig{
		Addrs: []string{wk.addr, w1.addr}, MaxRetries: 6, JobTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err = prob.CompileExec(ctx, art.Net, opts, pool.Session(key, specJSON, dist.FromOptions(opts)))
	alive := pool.AliveWorkers()
	pool.Close()
	if err != nil {
		t.Fatalf("fault-pass compile: %v", err)
	}
	if err := sameMarginals(remote, local); err != nil {
		t.Fatalf("fault pass: %v", err)
	}
	if alive != 1 {
		t.Errorf("fault pass: want 1 surviving worker, have %d", alive)
	}
	stopAll(t, w1, w2, wk)
}

// TestSmokeTrace runs one remote compilation through the real CLI against a
// real worker process and requires the emitted Chrome trace to parse, to
// hold spans on at least two pid lanes, and to name every worker lane.
func TestSmokeTrace(t *testing.T) {
	w := spawnWorker(t)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	cmd := exec.Command(enframeBin(t),
		"-remote", w.addr, "-trace-out", traceFile, "-json",
		"-n", "10", "-iter", "2", "-job", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("enframe -remote -trace-out: %v", err)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace output is not valid Chrome trace JSON: %v", err)
	}
	spanPIDs := map[int]int{}
	laneNames := map[int]string{}
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "X":
			spanPIDs[ev.PID]++
		case "M":
			if ev.Name == "process_name" {
				name, _ := ev.Args["name"].(string)
				laneNames[ev.PID] = name
			}
		}
	}
	if len(spanPIDs) < 2 {
		t.Fatalf("trace has spans on %d pid lane(s), want >= 2 (coordinator + worker)", len(spanPIDs))
	}
	for pid, n := range spanPIDs {
		if pid != 1 && laneNames[pid] == "" {
			t.Errorf("pid lane %d has %d spans but no process_name metadata", pid, n)
		}
	}
	stopAll(t, w)
}

// artifactKey is the artifact content hash the router and the shards place
// a request by.
func artifactKey(t *testing.T, req server.RunRequest) string {
	t.Helper()
	_, key, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSmokeShard drives a real sharded fleet (enframe serve shards behind an
// enframe route router): routed marginals byte-identical to a single-node
// reference with stable placement; a third shard joins and the router must
// have warmed the keys it now owns (direct shard-side cache probes); then a
// SIGKILLed primary must be answered by a replica, byte-identically.
func TestSmokeShard(t *testing.T) {
	// smokeSeeds is wide enough that with replicas=2 over 3 shards at least
	// one key lands on the joined shard with overwhelming probability.
	const smokeSeeds = 8

	// Reference marginals from a plain single-node server.
	ref := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{}
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		r := postRun(t, ref.Addr(), smokeRequest(seed))
		if r.status != http.StatusOK {
			t.Fatalf("reference seed %d: status %d", seed, r.status)
		}
		want[seed] = string(r.Targets)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ref.Shutdown(ctx); err != nil {
		t.Errorf("reference drain: %v", err)
	}

	shards := []*child{spawnServe(t), spawnServe(t)}
	router := spawn(t, "route", "-addr", "127.0.0.1:0", "-shard-peers", shards[0].addr+","+shards[1].addr, "-grace", "5s")

	// Byte-identity and placement stability through the router: the second
	// request is a cache hit on the same shard as the first.
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		first := postRun(t, router.addr, smokeRequest(seed))
		if first.status != http.StatusOK {
			t.Fatalf("seed %d via router: status %d", seed, first.status)
		}
		if string(first.Targets) != want[seed] {
			t.Fatalf("seed %d: routed marginals differ from single-node reference", seed)
		}
		second := postRun(t, router.addr, smokeRequest(seed))
		if second.status != http.StatusOK {
			t.Fatalf("seed %d second request: status %d", seed, second.status)
		}
		if second.Cache != "hit" {
			t.Fatalf("seed %d second request: cache %q, want hit", seed, second.Cache)
		}
		if second.shard != first.shard {
			t.Fatalf("seed %d moved shards without a membership change: %s then %s", seed, first.shard, second.shard)
		}
		if string(second.Targets) != want[seed] {
			t.Fatalf("seed %d: warm routed marginals differ from reference", seed)
		}
	}

	// Join drill: the router must warm the keys the new shard owns before
	// /admin/join returns.
	joined := spawnServe(t)
	shards = append(shards, joined)
	status, _, raw := post(t, "http://"+router.addr+"/admin/join", map[string]string{"addr": joined.addr})
	var jout struct {
		Warmed int `json:"warmed"`
	}
	if err := json.Unmarshal(raw, &jout); err != nil || status != http.StatusOK {
		t.Fatalf("admin/join: status %d err %v", status, err)
	}

	// Reconstruct the ring the router now holds (same addresses, same
	// defaults) and probe the joined shard directly for every key it owns.
	ring := shard.NewRing([]string{shards[0].addr, shards[1].addr, joined.addr}, 0)
	warmHits := 0
	for seed := int64(1); seed <= smokeSeeds; seed++ {
		owned := false
		for _, o := range ring.Owners(artifactKey(t, smokeRequest(seed)), shard.DefaultReplicas) {
			owned = owned || o == joined.addr
		}
		if !owned {
			continue
		}
		r := postRun(t, joined.addr, smokeRequest(seed))
		if r.status != http.StatusOK {
			t.Fatalf("probe joined shard seed %d: status %d", seed, r.status)
		}
		if r.Cache != "hit" {
			t.Fatalf("seed %d owned by the joined shard but cold there: cache %q (warming broken)", seed, r.Cache)
		}
		if string(r.Targets) != want[seed] {
			t.Fatalf("seed %d: joined-shard marginals differ from reference", seed)
		}
		warmHits++
	}
	if warmHits == 0 {
		t.Fatalf("joined shard owns none of %d keys — cannot verify warming (warmed=%d)", smokeSeeds, jout.Warmed)
	}

	// Failover drill: SIGKILL the primary of seed 1; a replica must answer.
	primary := ring.Owners(artifactKey(t, smokeRequest(1)), 1)[0]
	var survivors []*child
	for _, s := range shards {
		if s.addr == primary {
			s.kill()
		} else {
			survivors = append(survivors, s)
		}
	}
	r := postRun(t, router.addr, smokeRequest(1))
	if r.status != http.StatusOK {
		t.Fatalf("post-kill seed 1: status %d", r.status)
	}
	if r.shard == primary {
		t.Fatalf("post-kill seed 1 answered by the killed shard %s", primary)
	}
	if string(r.Targets) != want[1] {
		t.Fatalf("post-kill seed 1: failover marginals differ from reference")
	}
	if f := metric(t, router.addr, "shard.route.failovers"); f < 1 {
		t.Errorf("shard.route.failovers = %g after killing %s, want ≥ 1", f, primary)
	}
	stopAll(t, append([]*child{router}, survivors...)...)
}

// streamSession drives one /v1/stream session, tracking the sequence number
// and the predicted next insert id of the newest window client-side.
type streamSession struct {
	url     string
	id      string
	seq     uint64
	nextIns int
}

// streamWorkload is the drill's session shape.
func streamWorkload() *stream.Config {
	return &stream.Config{
		Program: "kmedoids", K: 2, Iter: 2,
		Segments: 3, SegmentN: 5, Group: 2,
		Seed: 5,
	}
}

func openStream(t *testing.T, addr string, cfg *stream.Config) (*streamSession, server.StreamResponse) {
	t.Helper()
	url := "http://" + addr + "/v1/stream"
	status, _, raw := post(t, url, server.StreamRequest{Op: "create", Config: cfg})
	var resp server.StreamResponse
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("create: %v", err)
	}
	return &streamSession{url: url, id: resp.SessionID, seq: resp.Seq, nextIns: cfg.SegmentN}, resp
}

// push applies one delta batch at the tracked sequence.
func (s *streamSession) push(t *testing.T, deltas []stream.Delta) server.StreamResponse {
	t.Helper()
	status, _, raw := post(t, s.url, server.StreamRequest{Op: "push", SessionID: s.id, BaseSeq: s.seq, Deltas: deltas})
	var resp server.StreamResponse
	if status != http.StatusOK {
		t.Fatalf("push seq %d: status %d: %s", s.seq, status, raw)
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("push seq %d: %v", s.seq, err)
	}
	s.seq = resp.Seq
	return resp
}

func (s *streamSession) close(t *testing.T) {
	t.Helper()
	if status, _, raw := post(t, s.url, server.StreamRequest{Op: "close", SessionID: s.id}); status != http.StatusOK {
		t.Fatalf("close: status %d: %s", status, raw)
	}
}

// churnBatch is one structural batch that leaves the tuple set unchanged:
// insert a tuple into the newest window and delete it again in the same
// batch. The segment still gains a fresh variable, so its new net is no
// longer network.Equal to the old one and the segment must be re-ground and
// re-traced — pure structural work at a stable problem size.
func (s *streamSession) churnBatch(p float64) []stream.Delta {
	id := s.nextIns
	s.nextIns++
	return []stream.Delta{
		{Op: stream.OpInsert, Pos: []float64{0.7, 0.3}, P: &p},
		{Op: stream.OpDelete, ID: id},
	}
}

// twinPush pushes one batch to both sessions and requires their marginals to
// agree bit for bit: same config and same log, same answer.
func twinPush(t *testing.T, a, b *streamSession, deltas []stream.Delta, label string) (aResp, bResp server.StreamResponse) {
	t.Helper()
	aResp = a.push(t, deltas)
	bResp = b.push(t, deltas)
	am, bm := aResp.Marginals, bResp.Marginals
	same := len(am) == len(bm)
	for i := 0; same && i < len(am); i++ {
		same = am[i].Window == bm[i].Window && am[i].Name == bm[i].Name &&
			math.Float64bits(am[i].Lower) == math.Float64bits(bm[i].Lower) &&
			math.Float64bits(am[i].Upper) == math.Float64bits(bm[i].Upper)
	}
	if !same {
		t.Fatalf("%s: replica sessions' marginals diverge", label)
	}
	return aResp, bResp
}

// TestSmokeStream drives the /v1/stream data plane on a real server: twin
// sessions fed identical probability, structural and window-advance batches
// must stay bitwise identical after every push, each structural push
// re-grounding only its dirty segment; a duplicate push must be rejected with 409
// carrying the session sequence; and after both sessions close the server
// must be back at its baseline goroutine count before it drains.
func TestSmokeStream(t *testing.T) {
	srv := spawnServe(t)
	addr := srv.addr

	// Warm the process (metrics endpoint, HTTP stack) before the baseline
	// goroutine reading so transport start-up is not counted as a leak.
	metric(t, addr, "process.goroutines")
	baseGoroutines := metric(t, addr, "process.goroutines")
	if baseGoroutines <= 0 {
		t.Fatalf("process.goroutines = %g", baseGoroutines)
	}

	incr, created := openStream(t, addr, streamWorkload())
	replica, _ := openStream(t, addr, streamWorkload())
	if len(created.Windows) != 3 || len(created.Windows[0].Vars) == 0 {
		t.Fatalf("create returned %d windows", len(created.Windows))
	}
	if active := metric(t, addr, "stream.sessions.active"); active != 2 {
		t.Fatalf("stream.sessions.active = %g with two open sessions", active)
	}
	v := created.Windows[0].Vars[0]

	// Probability-only delta: replay the memoized circuit, re-ground nothing.
	p := 0.35
	iResp, _ := twinPush(t, incr, replica, []stream.Delta{{Op: stream.OpProb, Var: v, P: &p}}, "prob push")
	if st := iResp.Stats; st == nil || st.Replayed < 1 || st.Reground != 0 {
		t.Fatalf("prob push did not take the replay fast path: %+v", st)
	}

	// Structural delta: one dirty segment, re-ground alone.
	batch := incr.churnBatch(0.6)
	replica.nextIns = incr.nextIns
	iResp, _ = twinPush(t, incr, replica, batch, "structural push")
	if st := iResp.Stats; st == nil || st.Reground != 1 {
		t.Fatalf("structural push did not re-ground exactly 1 segment: %+v", st)
	}

	// Window advance plus activity against the freshly admitted segment.
	twinPush(t, incr, replica, []stream.Delta{{Op: stream.OpAdvance, N: 1}}, "advance")
	incr.nextIns, replica.nextIns = 5, 5 // the newest window is fresh: ids restart at segment_n
	p2 := 0.8
	twinPush(t, incr, replica, []stream.Delta{{Op: stream.OpProb, Var: v, P: &p2}}, "post-advance prob")
	batch = incr.churnBatch(0.4)
	replica.nextIns = incr.nextIns
	twinPush(t, incr, replica, batch, "post-advance structural")

	// Duplicate delivery: the last push again at its stale base sequence.
	status, _, raw := post(t, incr.url, server.StreamRequest{
		Op: "push", SessionID: incr.id, BaseSeq: incr.seq - uint64(len(batch)), Deltas: batch,
	})
	if status != http.StatusConflict {
		t.Fatalf("duplicate push: status %d, want 409", status)
	}
	var conflict struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(raw, &conflict); err != nil || conflict.Seq != incr.seq {
		t.Fatalf("409 body %q does not carry the session seq %d", raw, incr.seq)
	}
	if n := metric(t, addr, "stream.seq_conflicts"); n != 1 {
		t.Errorf("stream.seq_conflicts = %g, want 1", n)
	}

	incr.close(t)
	replica.close(t)
	if active := metric(t, addr, "stream.sessions.active"); active != 0 {
		t.Errorf("stream.sessions.active = %g after closing both sessions", active)
	}

	// Sessions hold no goroutines, so once our keep-alive connections are
	// released the server must be back at about its baseline; the slack
	// absorbs transient HTTP connections.
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(200 * time.Millisecond)
	if after := metric(t, addr, "process.goroutines"); after > baseGoroutines+8 {
		t.Errorf("goroutines grew %g -> %g after session close (leak)", baseGoroutines, after)
	}
	stopAll(t, srv)
}

// TestSmokeObservability runs the CLI's observability surface on a
// quickstart-sized run: -json must emit one valid JSON object on stdout,
// -trace must print the span tree (on stderr under -json), -trace-out must
// write a loadable Chrome trace, and -metrics must dump the registry.
func TestSmokeObservability(t *testing.T) {
	bin := enframeBin(t)
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-program", "kmedoids", "-n", "8", "-vars", "6", "-iter", "2",
		"-trace", "-json", "-trace-out", traceFile)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("enframe -trace -json -trace-out: %v\n%s", err, stderr.Bytes())
	}
	var run struct {
		Targets []json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &run); err != nil || len(run.Targets) == 0 {
		t.Errorf("-json stdout is not one JSON object with targets (err %v): %q", err, stdout.Bytes())
	}
	if !strings.Contains(stderr.String(), "compile") {
		t.Errorf("-trace printed no span tree on stderr: %q", stderr.Bytes())
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("-trace-out did not write a Chrome trace with events (err %v)", err)
	}

	out, err := exec.Command(bin, "-program", "kmedoids", "-n", "8", "-vars", "6", "-iter", "2",
		"-strategy", "hybrid", "-eps", "0.1", "-workers", "4", "-metrics").Output()
	if err != nil {
		t.Fatalf("enframe -strategy hybrid -workers 4 -metrics: %v", err)
	}
	if !strings.Contains(string(out), "prob.branches") {
		t.Errorf("-metrics printed no prob.branches counter:\n%s", out)
	}
}
