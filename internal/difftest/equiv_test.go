package difftest

import (
	"fmt"
	"sync/atomic"
	"testing"

	"enframe/internal/event"
	"enframe/internal/gen"
	"enframe/internal/lang"
	"enframe/internal/worlds"
)

// TestFusedMatchesASTGrounding ties the network the compilers run on (the
// fused, targeted grounding) to the one the per-world stage checks. The
// name predates the removal of the AST emitter, whose grounding was the
// reference here; the reference is now the untargeted net. checkProgram
// evaluates that untargeted grounding, in which every node is kept; core
// and the compilers run on a targeted one, which Build sweeps down to the
// targets' cones and renumbers. For a batch of generated programs, every
// target of the targeted net must evaluate, in every world, to the value of
// its symbol's node in the untargeted net. Runs parallel per seed, so
// `go test -race` also exercises the builders under concurrent
// construction.
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
			if checkTargetedNet(t, seed) {
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

// checkTargetedNet grounds one generated program with and without targets
// and compares the two world by world; it reports whether the seed yielded
// a comparable pair.
func checkTargetedNet(t *testing.T, seed int64) bool {
	p := gen.New(seed)
	prog, err := lang.Parse(p.Source())
	if err != nil {
		t.Skipf("parse: %v", err)
	}
	checked, res, err := groundChecked(p, prog)
	if err != nil {
		t.Skipf("translate: %v", err)
	}
	net, err := groundProgram(p, prog)
	if err != nil {
		t.Fatalf("targeted grounding failed where the untargeted one succeeded: %v", err)
	}
	if net == nil {
		t.Skip("no Boolean targets")
	}
	if net.NumNodes() > checked.NumNodes() {
		t.Fatalf("seed %d: targeted net has %d nodes, the untargeted one %d",
			seed, net.NumNodes(), checked.NumNodes())
	}
	worlds.Enumerate(p.Input.Space, func(nu event.SliceValuation, _ float64) bool {
		ca, ta := checked.Eval(nu), net.Eval(nu)
		for _, tg := range net.Targets {
			id, _ := res.BoolNode(tg.Name)
			if ca.Bools[id] != ta.Bools[tg.Node] {
				t.Fatalf("seed %d: world %v: %s: targeted net %v, untargeted net %v\nprogram:\n%s",
					seed, nu, tg.Name, ta.Bools[tg.Node], ca.Bools[id], p.Source())
			}
		}
		return true
	})
	return true
}
