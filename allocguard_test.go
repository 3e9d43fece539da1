package enframe

import (
	"context"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
)

// frontEndAllocBudget is the ceiling on allocations per obs-disabled fused
// front-end run (lex → parse → fused translate+ground) at the kmedoids n=24
// benchmark scale. Measured ~32.5k (materialising the event-program AST first
// costs ~1.51M); the headroom absorbs map growth
// nondeterminism, not regressions — a return to AST materialisation or
// per-node key allocation blows through it immediately.
const frontEndAllocBudget = 45000

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
	if _, err := prob.Compile(art.Net, opts); err != nil {
		t.Fatal(err) // warm the cached network.Flat layout
	}
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
