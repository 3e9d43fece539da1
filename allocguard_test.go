package enframe

import (
	"context"
	"runtime"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
	"enframe/internal/server"
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
// one entry of the serving layer's artifact cache keeps alive, of which the
// 2,865-node network's columns are ≈ 112 KB. Measured ≈ 131 KB (≈ 643 KB
// when a pointer DAG and a flat view of the network were both kept); a
// second copy of the network blows through it.
const retainedArtifactBudget = 200 << 10

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
// allocates its planes, abstract records, aux tables, and trail once up
// front and then runs allocation-free through the ~1.4M parent-edge visits
// of the expansion; measured ~200 allocs/op. The headroom absorbs slice
// regrowth nondeterminism — any per-node or per-propagation allocation
// creeping into the hot loop blows the budget by orders of magnitude.
const compileAllocBudget = 450

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
