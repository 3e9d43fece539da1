package difftest

import (
	"fmt"
	"sync/atomic"
	"testing"

	"enframe/internal/gen"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/translate"
)

// TestFusedMatchesASTGrounding ties the front end to the §3 semantics
// oracle: for a batch of generated programs, the network the fused
// TranslateInto pass builds must be structurally isomorphic to the one
// grounded from the event-program AST that translate.Translate emits (the
// AST the per-world check validates against the interpreter), and both must
// compile to bit-identical marginals under the exact compiler and the
// reference evaluator. Runs parallel per seed, so `go test -race` also
// exercises the builders under concurrent construction.
func TestFusedMatchesASTGrounding(t *testing.T) {
	const seeds = 260
	minChecked := int64(200)
	if testing.Short() {
		minChecked = 30
	}
	var checked atomic.Int64
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if checkFusedAST(t, seed) {
				checked.Add(1)
			}
		})
	}
	t.Cleanup(func() {
		if got := checked.Load(); got < minChecked {
			t.Errorf("only %d/%d seeds produced comparable networks (need ≥%d)", got, seeds, minChecked)
		}
	})
}

// checkFusedAST grounds one generated program from the emitted AST and by
// the fused pass and cross-checks the two networks; it reports whether the
// seed yielded a comparable pair.
func checkFusedAST(t *testing.T, seed int64) bool {
	p := gen.New(seed)
	in := p.Input
	prog, err := lang.Parse(p.Source())
	if err != nil {
		t.Skipf("parse: %v", err)
	}
	res, err := translate.Translate(prog, externalOf(p))
	if err != nil {
		t.Skipf("translate: %v", err)
	}
	fusedNet, err := groundProgram(p, prog)
	if err != nil {
		t.Fatalf("fused grounding failed where the AST translation succeeded: %v", err)
	}
	if fusedNet == nil {
		t.Skip("no Boolean targets")
	}

	ab := network.NewBuilder(in.Space, in.Metric)
	for _, tg := range fusedNet.Targets {
		e, ok := res.BoolEvent(tg.Name)
		if !ok {
			t.Fatalf("%s: bound by the fused pass but not in the emitted AST", tg.Name)
		}
		ab.Target(tg.Name, ab.AddExpr(e))
	}
	astNet := ab.Build()

	if err := network.Isomorphic(astNet, fusedNet); err != nil {
		t.Fatalf("seed %d: %v\nprogram:\n%s", seed, err, p.Source())
	}

	// Isomorphic nets must compile to bit-identical marginals: same exact
	// compiler output, same reference-evaluator output.
	compareBits(t, seed, p, "exact",
		mustCompile(t, astNet, prob.Compile),
		mustCompile(t, fusedNet, prob.Compile))
	compareBits(t, seed, p, "reference",
		mustCompile(t, astNet, prob.CompileRef),
		mustCompile(t, fusedNet, prob.CompileRef))
	return true
}

func mustCompile(t *testing.T, net *network.Net,
	compile func(*network.Net, prob.Options) (*prob.Result, error)) *prob.Result {
	t.Helper()
	r, err := compile(net, prob.Options{Strategy: prob.Exact})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return r
}

// compareBits asserts got carries exactly want's bounds, target by target.
func compareBits(t *testing.T, seed int64, p *gen.Program, stage string, want, got *prob.Result) {
	t.Helper()
	if len(want.Targets) != len(got.Targets) {
		t.Fatalf("seed %d: %s: %d vs %d targets", seed, stage, len(want.Targets), len(got.Targets))
	}
	for _, wt := range want.Targets {
		gt, ok := got.Target(wt.Name)
		if !ok {
			t.Fatalf("seed %d: %s: result missing target %q", seed, stage, wt.Name)
		}
		if wt.Lower != gt.Lower || wt.Upper != gt.Upper {
			t.Fatalf("seed %d: %s: %s: want [%.17g, %.17g], got [%.17g, %.17g]\nprogram:\n%s",
				seed, stage, wt.Name, wt.Lower, wt.Upper, gt.Lower, gt.Upper, p.Source())
		}
	}
}
