package enframe

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/stream"
)

// frontEndAllocBudget is the ceiling on allocations per obs-disabled fused
// front-end run (lex → parse → fused translate+ground) at the kmedoids n=24
// benchmark scale. Measured 2,255 since the translator calls the builder
// directly instead of through an emitter interface (2,262 before; 11,847
// while the builder interned through a string-keyed map; ~32.5k while Build
// allocated a child and a parent slice per node). The budget is under 1.5×
// the measured count, so a 1.5× regression fails it.
const frontEndAllocBudget = 3300

// TestFrontEndAllocGuard holds the fused front end to its post-fusion
// allocation profile. Run as part of `make ci` (via `make alloc-guard`).
func TestFrontEndAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	spec := coreSpec(t, false)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.PrepareContext(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fused front end: %.0f allocs/op (budget %d)", allocs, frontEndAllocBudget)
	if allocs > frontEndAllocBudget {
		t.Errorf("fused front end allocates %.0f/op, over the %d budget — the streaming builder hot path regressed",
			allocs, frontEndAllocBudget)
	}
}

// retainedArtifactBudget is the ceiling on live heap per prepared and traced
// artifact of the serve-run-mixed shape (kmedoids n=16 vars=8 iter=2): what
// one entry of the serving layer's artifact cache keeps alive. Measured
// ≈ 69 KB since the network stores child spans only and the compiler derives
// its parent index per compile (≈ 113 KB while every network also kept its
// parent spans; ≈ 643 KB when a pointer DAG and a flat view of the network
// were both kept). The budget is under 1.5× the measured count, so an
// artifact that again keeps a parent index, or a second copy of the
// network, blows through it.
const retainedArtifactBudget = 100 << 10

// TestRetainedArtifactAllocGuard holds a cached artifact to one copy of its
// network, and Artifact.Bytes — what the server.cache.bytes gauge sums — to
// within 25 % of the heap an artifact really retains. Run as part of `make
// ci` (via `make alloc-guard`).
func TestRetainedArtifactAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	const n = 32
	ctx := context.Background()
	arts := make([]*core.Artifact, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range arts {
		spec, _, err := server.BuildSpec(server.RunRequest{
			Program: "kmedoids",
			Data:    server.DataSpec{N: 16, Scheme: "positive", Vars: 8, L: 8, M: 12, Group: 4, Seed: int64(i + 1)},
			Params:  server.ParamSpec{K: 2, Iter: 2},
			Targets: []string{"Centre["},
		})
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := art.Circuit(ctx, spec.Compile); err != nil {
			t.Fatal(err)
		}
		arts[i] = art
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	var accounted int64
	for _, art := range arts {
		accounted += art.Bytes()
	}
	accounted /= n
	t.Logf("retained %d B/artifact (budget %d), Artifact.Bytes %d B/artifact", retained, retainedArtifactBudget, accounted)
	if retained > retainedArtifactBudget {
		t.Errorf("a cached artifact retains %d B, over the %d budget — a second copy of the network is being kept",
			retained, retainedArtifactBudget)
	}
	if d := accounted - retained; 4*d > retained || -4*d > retained {
		t.Errorf("Artifact.Bytes = %d B, more than 25%% off the %d B an artifact retains", accounted, retained)
	}
}

// compileAllocBudget is the ceiling on allocations per exact compile through
// the bit-parallel flat core at the same kmedoids n=24 scale. The packed core
// builds its per-net tables and its mask block once up front and then runs
// allocation-free through the parent-edge visits of the expansion, bar the
// trail and queue growing to their high-water marks; measured 188 allocs/op.
// A sequential walk takes nothing from the free list of mask blocks (see
// TestDistributedCompileAllocGuard for the runner that does). The budget is
// under 1.5× the measured count — any per-node or per-propagation allocation
// creeping into the hot loop blows it by orders of magnitude.
const compileAllocBudget = 280

// TestCompileAllocGuard holds the flat compilation core to its packed
// allocation profile. Run as part of `make ci` (via `make alloc-guard`).
func TestCompileAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	spec := coreSpec(t, false)
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := prob.Options{Strategy: prob.Exact}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := prob.Compile(art.Net, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("flat exact compile: %.0f allocs/op (budget %d)", allocs, compileAllocBudget)
	if allocs > compileAllocBudget {
		t.Errorf("flat compile allocates %.0f/op, over the %d budget — the packed core hot path regressed",
			allocs, compileAllocBudget)
	}
}

// Budgets per compile-hybrid compile: one Hybrid ε=0.1, W=2, d=3 compile of
// a prepared kmedoids n=24 artifact whose variable order is already
// memoized. Measured 169–188 allocs and 0.9–1.4 MB per compile; 576 allocs
// and 12.1 MB while every worker state rebuilt the per-net tables and every
// job snapshot, trail and queue was a fresh allocation.
const (
	distributedCompileAllocBudget = 300
	distributedCompileByteBudget  = 3 << 20
)

// TestDistributedCompileAllocGuard holds the fork/join path of the
// distributed runner — the job snapshots, the worker states, their trails and
// queues — to recycled storage: a compile of an artifact the process already
// compiled allocates little more than its pristine state and its results.
// Run as part of `make ci` (via `make alloc-guard`).
func TestDistributedCompileAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	spec, _, err := server.BuildSpec(server.RunRequest{
		Program: "kmedoids",
		Data:    server.DataSpec{N: 24, Scheme: "positive", Vars: 16, L: 8, M: 12, Group: 4, Seed: 1},
		Params:  server.ParamSpec{K: 2, Iter: 3},
		Targets: []string{"Centre["},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	art, err := core.PrepareContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1, Workers: 2, JobDepth: 3}
	compile := func() {
		if _, err := art.CompileContext(ctx, opts); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("distributed hybrid compile: %d allocs/op (budget %d), %d B/op (budget %d)",
		allocs, distributedCompileAllocBudget, bytes, distributedCompileByteBudget)
	if raceEnabled {
		t.Skip("budgets not enforced under -race: the race detector's sync.Pool drops recycled mask blocks at random; make alloc-guard enforces them")
	}
	if allocs > distributedCompileAllocBudget {
		t.Errorf("distributed compile allocates %d/op, over the %d budget — job snapshots or worker states are allocated per job again",
			allocs, distributedCompileAllocBudget)
	}
	if bytes > distributedCompileByteBudget {
		t.Errorf("distributed compile allocates %d B/op, over the %d B budget — job snapshots or worker states are allocated per job again",
			bytes, distributedCompileByteBudget)
	}
}

// whatifSweepAllocBudget is the ceiling on allocations per warm /v1/whatif
// sweep through the server's handler (BenchmarkWhatifSweep's request: 32
// points over a kmedoids n=24 vars=10 iter=3 artifact). Measured 64
// allocs/op — request decoding, the envelope, the recorder — with the
// replay's lane matrices, its scratch and the reply's bytes and float memo
// taken from a pool; 286 while every point allocated its own bounds and
// every request generated its data before the cache lookup. The budget is
// 1.5× the measured count.
const whatifSweepAllocBudget = 96

// TestWhatifSweepAllocGuard holds a warm what-if sweep to pooled storage.
// Run as part of `make ci` (via `make alloc-guard`).
func TestWhatifSweepAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("not enforced under -race: the race detector's sync.Pool drops pooled reply buffers at random; make alloc-guard enforces it")
	}
	h, bodies := warmWhatif(t)
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		serveWhatif(t, h, bodies[i%len(bodies)])
		i++
	})
	t.Logf("warm what-if sweep: %.0f allocs/op (budget %d)", allocs, whatifSweepAllocBudget)
	if allocs > whatifSweepAllocBudget {
		t.Errorf("a warm what-if sweep allocates %.0f/op, over the %d budget — its bounds, scratch or data are allocated per request again",
			allocs, whatifSweepAllocBudget)
	}
}

// streamSessionRetainedBudget is the ceiling on the growth of the heap a
// live stream session retains between its 1,000th and 5,000th
// probability-only push. A session holds its live segments and a sequence
// number, nothing per push; while it kept every pushed delta in a log it
// grew by ≈ 486 B a push, ≈ 1.9 MB over this span.
const streamSessionRetainedBudget = 64 << 10

// TestStreamSessionRetainedHeapAllocGuard holds a stream session's memory
// to its live windows: pushes that change only probabilities must not make
// it grow. Run as part of `make ci` (via `make alloc-guard`).
func TestStreamSessionRetainedHeapAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	ctx := context.Background()
	sess, err := stream.NewSession(ctx, streamBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	wins := sess.Windows()
	vars := make([][]string, len(wins))
	for i, w := range wins {
		if vars[i], err = sess.VarNames(w); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	push := func(n int) {
		for ; n > 0; n-- {
			deltas := make([]stream.Delta, 4)
			for k := range deltas {
				i := rng.Intn(len(wins))
				deltas[k] = probDelta(wins[i], vars[i][rng.Intn(len(vars[i]))], 0.05+0.9*rng.Float64())
			}
			if _, err := sess.Apply(ctx, sess.Seq(), deltas); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle also empties the pools' victim caches
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	push(1000)
	before := heap()
	push(4000)
	grown := heap() - before
	runtime.KeepAlive(sess)
	t.Logf("stream session: retained heap grew %d B over 4,000 pushes (budget %d)", grown, streamSessionRetainedBudget)
	if grown > streamSessionRetainedBudget {
		t.Errorf("a stream session's retained heap grew %d B over 4,000 probability pushes, over the %d budget — the session keeps something per push",
			grown, streamSessionRetainedBudget)
	}
}

// streamPushAllocBudget is the ceiling on allocations per warm
// probability-only /v1/stream push through the server's handler
// (BenchmarkStreamProbPush's session and batches). Measured 75 allocs/op —
// request decoding, the recorder and the update — with every replayed
// segment writing into its own marginals, probability vector and bound
// scratch and the reply append-encoded into a pooled buffer; 92 while each
// replay allocated a probability vector, two bound slices and a Result; 124
// while the reply was reflect-encoded and every batch copied its windows'
// tuple ids and variable names into validation maps. The budget is 1.5× the
// measured count.
const streamPushAllocBudget = 112

// TestStreamPushAllocGuard holds a warm probability push to its allocation
// profile. Run as part of `make ci` (via `make alloc-guard`).
func TestStreamPushAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is a perf gate, skipped in -short")
	}
	if raceEnabled {
		t.Skip("not enforced under -race: the race detector's sync.Pool drops pooled reply buffers at random; make alloc-guard enforces it")
	}
	p := newStreamPusher(t)
	allocs := testing.AllocsPerRun(50, func() { p.push(t) })
	t.Logf("warm stream probability push: %.0f allocs/op (budget %d)", allocs, streamPushAllocBudget)
	if allocs > streamPushAllocBudget {
		t.Errorf("a warm stream probability push allocates %.0f/op, over the %d budget — its validation, replay or reply allocates per delta or per marginal again",
			allocs, streamPushAllocBudget)
	}
}
