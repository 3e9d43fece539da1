package difftest

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"enframe/internal/event"
	"enframe/internal/gen"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"
)

// TestCircuitExactEquivalence is the oracle check for the circuit backend:
// for a batch of generated programs, compiling with Strategy Circuit (trace
// the exact walk into an arithmetic circuit, replay it) must be
// bit-identical to a plain exact compile — marginals and work counters —
// and a second trace must reproduce the first byte for byte. On top of the
// bit contract it checks the reuse property the backend exists for:
// re-evaluating the circuit at perturbed probabilities agrees with a fresh
// exact compile at those probabilities to within accumulation tolerance.
// Runs parallel per seed so `go test -race` exercises concurrent replay.
func TestCircuitExactEquivalence(t *testing.T) {
	const seeds = 300
	minChecked := int64(230)
	if testing.Short() {
		minChecked = 30
	}
	var checked atomic.Int64
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if checkCircuitExact(t, seed) {
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

// genNet grounds one generated program as checkProgram does; nil when the
// seed yields no comparable network.
func genNet(p *gen.Program) *network.Net {
	prog, err := lang.Parse(p.Source())
	if err != nil {
		return nil
	}
	net, err := groundProgram(p, prog)
	if err != nil {
		return nil
	}
	return net
}

// buildEquivNet is genNet for per-seed subtests: it skips the seeds genNet
// rejects.
func buildEquivNet(t *testing.T, p *gen.Program) *network.Net {
	t.Helper()
	net := genNet(p)
	if net == nil {
		t.Skip("no comparable network")
	}
	return net
}

func checkCircuitExact(t *testing.T, seed int64) bool {
	p := gen.New(seed)
	net := buildEquivNet(t, p)

	exact, err := prob.Compile(net, prob.Options{Strategy: prob.Exact})
	if err != nil {
		t.Fatalf("exact compile: %v", err)
	}
	c1, circRes, err := prob.CompileCircuit(context.Background(), net, prob.Options{})
	if err != nil {
		t.Fatalf("circuit compile: %v", err)
	}
	if f := checkBitIdentical(circRes, exact, "circuit"); f != nil {
		t.Fatalf("seed %d: %s\nprogram:\n%s", seed, f.Detail, p.Source())
	}

	// Trace determinism: a second compilation must record the identical
	// circuit — node for node, decision for decision.
	c2, _, err := prob.CompileCircuit(context.Background(), net, prob.Options{})
	if err != nil {
		t.Fatalf("circuit recompile: %v", err)
	}
	if c1.Nodes() != c2.Nodes() || c1.Events() != c2.Events() ||
		c1.TreeBranches() != c2.TreeBranches() || c1.Complete() != c2.Complete() {
		t.Fatalf("seed %d: traces diverged: %d/%d nodes, %d/%d events, %d/%d branches\nprogram:\n%s",
			seed, c1.Nodes(), c2.Nodes(), c1.Events(), c2.Events(),
			c1.TreeBranches(), c2.TreeBranches(), p.Source())
	}

	// The reuse contract: replaying the circuit at perturbed probabilities
	// must agree with a fresh exact compile at those probabilities. Only
	// complete circuits answer for other assignments.
	if c1.Complete() {
		probs := prob.SpaceProbs(net.Space)
		orig := append([]float64(nil), probs...)
		for i := range probs {
			probs[i] = 0.35 + 0.4*probs[i] // keep strictly inside (0, 1)
			net.Space.SetProb(event.VarID(i), probs[i])
		}
		fresh, err := prob.Compile(net, prob.Options{Strategy: prob.Exact})
		for i := range orig {
			net.Space.SetProb(event.VarID(i), orig[i])
		}
		if err != nil {
			t.Fatalf("perturbed exact compile: %v", err)
		}
		replay, err := prob.EvalCircuit(c1, probs)
		if err != nil {
			t.Fatalf("perturbed replay: %v", err)
		}
		for i, want := range fresh.Targets {
			got := replay.Targets[i]
			if got.Name != want.Name ||
				math.Abs(got.Lower-want.Lower) > tol || math.Abs(got.Upper-want.Upper) > tol {
				t.Fatalf("seed %d: perturbed replay: %s: got [%.12g, %.12g], fresh exact [%.12g, %.12g]\nprogram:\n%s",
					seed, want.Name, got.Lower, got.Upper, want.Lower, want.Upper, p.Source())
			}
		}
	}
	return true
}

// TestCircuitSensitivityAgreement checks that sensitivity analysis routed
// through a cached circuit (one trace + two replays per variable) agrees
// with the recompile-per-conditional exact path across a sweep of seeds.
func TestCircuitSensitivityAgreement(t *testing.T) {
	seeds := []int64{1, 3, 7, 11, 19, 42, 97, 128}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			p := gen.New(seed)
			net := buildEquivNet(t, p)
			target := net.Targets[0].Name
			viaExact, err := prob.Sensitivity(net, prob.Options{Strategy: prob.Exact}, target)
			if err != nil {
				t.Fatalf("exact sensitivity: %v", err)
			}
			viaCircuit, err := prob.Sensitivity(net, prob.Options{Strategy: prob.Circuit}, target)
			if err != nil {
				t.Fatalf("circuit sensitivity: %v", err)
			}
			if len(viaExact) != len(viaCircuit) {
				t.Fatalf("seed %d: %d vs %d influences", seed, len(viaExact), len(viaCircuit))
			}
			// The sort is by |derivative|; near-ties may order differently
			// across the two paths, so match influences by variable.
			want := map[event.VarID]prob.VarInfluence{}
			for _, vi := range viaExact {
				want[vi.Var] = vi
			}
			for _, got := range viaCircuit {
				w, ok := want[got.Var]
				if !ok {
					t.Fatalf("seed %d: circuit reported unknown variable %d", seed, got.Var)
				}
				if math.Abs(got.CondTrue-w.CondTrue) > tol ||
					math.Abs(got.CondFalse-w.CondFalse) > tol ||
					math.Abs(got.Derivative-w.Derivative) > tol {
					t.Fatalf("seed %d: var %d: circuit {%g %g %g} vs exact {%g %g %g}",
						seed, got.Var, got.CondTrue, got.CondFalse, got.Derivative,
						w.CondTrue, w.CondFalse, w.Derivative)
				}
			}
		})
	}
}
