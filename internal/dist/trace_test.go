package dist_test

import (
	"context"
	"testing"
	"time"

	"enframe/internal/dist"
	"enframe/internal/obs"
)

// startWorkerCfg is startWorker with full config control (e.g. an injected
// clock).
func startWorkerCfg(t *testing.T, cfg dist.WorkerConfig) *dist.Worker {
	t.Helper()
	if cfg.Resolver == nil {
		cfg.Resolver = testResolver
	}
	if cfg.Slots == 0 {
		cfg.Slots = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	w, err := dist.NewWorker(cfg)
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

// tracedRun compiles one workload over the pool with tracing enabled and
// returns the finished trace.
func tracedRun(t *testing.T, p *dist.Pool, seed int64) *obs.Trace {
	t.Helper()
	tr := obs.New("coordinator")
	req := genRequest(seed)
	wo := dist.WireOpts{Strategy: "exact", JobDepth: 2, Heuristic: "fanout"}
	runOverPoolObs(t, p, req, wo, tr)
	tr.Finish()
	return tr
}

// collectPIDs walks an exported span tree, counting spans per pid lane
// (0 normalises to the local lane 1) and recording lane transitions.
func collectPIDs(ex obs.SpanExport, into map[int]int) {
	pid := ex.PID
	if pid == 0 {
		pid = 1
	}
	into[pid]++
	for _, c := range ex.Children {
		collectPIDs(c, into)
	}
}

// remoteSubtreeParents walks the tree and reports the names of spans that
// directly parent a remote (pid > 1) subtree.
func remoteSubtreeParents(ex obs.SpanExport, parents map[string]int) {
	selfPID := ex.PID
	if selfPID == 0 {
		selfPID = 1
	}
	for _, c := range ex.Children {
		cPID := c.PID
		if cPID == 0 {
			cPID = 1
		}
		if selfPID == 1 && cPID > 1 {
			parents[ex.Name]++
		}
		remoteSubtreeParents(c, parents)
	}
}

// spanTimeBounds returns the min start / max end across spans on the given
// lane predicate.
func spanTimeBounds(ex obs.SpanExport, match func(pid int) bool, minStart, maxEnd *int64) {
	pid := ex.PID
	if pid == 0 {
		pid = 1
	}
	if match(pid) {
		if *minStart == 0 || ex.StartNs < *minStart {
			*minStart = ex.StartNs
		}
		if ex.EndNs > *maxEnd {
			*maxEnd = ex.EndNs
		}
	}
	for _, c := range ex.Children {
		spanTimeBounds(c, match, minStart, maxEnd)
	}
}

// TestMergedTraceWorkerLanes runs a traced remote compilation against a
// worker whose injected clock is an hour ahead and requires the merged trace
// to carry (1) spans on at least two distinct pid lanes, (2) every remote
// subtree parented under a coordinator-side "ship" span (no orphans), and
// (3) remote timestamps mapped onto the coordinator clock despite the skew.
func TestMergedTraceWorkerLanes(t *testing.T) {
	skewed := func() time.Time { return time.Now().Add(time.Hour) }
	w := startWorkerCfg(t, dist.WorkerConfig{Now: skewed})
	pool := newPool(t, dist.PoolConfig{Addrs: []string{w.Addr()}})
	tr := tracedRun(t, pool, 42)

	ex := tr.Root().Export()
	pids := map[int]int{}
	collectPIDs(ex, pids)
	if len(pids) < 2 {
		t.Fatalf("trace has %d pid lane(s) %v, want >= 2", len(pids), pids)
	}
	parents := map[string]int{}
	remoteSubtreeParents(ex, parents)
	for name, n := range parents {
		if name != "ship" {
			t.Fatalf("%d remote subtree(s) parented under %q, want only under \"ship\"", n, name)
		}
	}
	if parents["ship"] == 0 {
		t.Fatal("no remote subtrees spliced under ship spans")
	}

	// Clock mapping: the worker's clock is an hour ahead, so unmapped
	// timestamps would sit ~3.6e12 ns outside the trace; mapped ones must
	// land inside the coordinator's own window.
	var remoteStart, remoteEnd int64
	spanTimeBounds(ex, func(pid int) bool { return pid > 1 }, &remoteStart, &remoteEnd)
	rootStart, rootEnd := ex.StartNs, ex.EndNs
	const slack = int64(time.Minute)
	if remoteStart < rootStart-slack || remoteEnd > rootEnd+slack {
		t.Fatalf("remote span window [%d,%d] not mapped into coordinator window [%d,%d] (worker clock is +1h)",
			remoteStart, remoteEnd, rootStart, rootEnd)
	}
}

// TestWorkerDeathZeroesGauges kills a worker mid-life and requires both its
// alive and inflight gauges to read zero afterwards; closing the pool must
// do the same for healthy workers.
func TestWorkerDeathZeroesGauges(t *testing.T) {
	w := startWorkerCfg(t, dist.WorkerConfig{})
	reg := obs.NewRegistry()
	pool := newPool(t, dist.PoolConfig{
		Addrs: []string{w.Addr()}, Reg: reg,
		HeartbeatEvery: 20 * time.Millisecond, HeartbeatMiss: 2,
	})
	if got := reg.Gauge("dist.worker.0.alive").Value(); got != 1 {
		t.Fatalf("alive gauge %v after connect, want 1", got)
	}
	_ = w.Close()
	deadline := time.Now().Add(5 * time.Second)
	for pool.AliveWorkers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never marked dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Gauge("dist.worker.0.alive").Value(); got != 0 {
		t.Fatalf("alive gauge %v after death, want 0", got)
	}
	if got := reg.Gauge("dist.worker.0.inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge %v after death, want 0", got)
	}

	w2 := startWorkerCfg(t, dist.WorkerConfig{})
	reg2 := obs.NewRegistry()
	pool2, err := dist.NewPool(context.Background(), dist.PoolConfig{
		Addrs: []string{w2.Addr()}, Reg: reg2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = pool2.Close()
	if got := reg2.Gauge("dist.worker.0.alive").Value(); got != 0 {
		t.Fatalf("alive gauge %v after pool close, want 0", got)
	}
	if got := reg2.Gauge("dist.worker.0.inflight").Value(); got != 0 {
		t.Fatalf("inflight gauge %v after pool close, want 0", got)
	}
}
