package network

import (
	"math"
	"testing"

	"enframe/internal/event"
	"enframe/internal/worlds"
)

// buildEqNet grounds a tiny two-target network; the parameters let each case
// vary one ingredient.
func buildEqNet(p1 float64, targetName string) *Net {
	sp := event.NewSpace()
	x := sp.Add("x", p1)
	y := sp.Add("y", 0.5)
	b := NewBuilder(sp, nil)
	vx, vy := b.Var(x), b.Var(y)
	sum := b.Sum(b.CondVal(vx, event.Num(2)), b.CondVal(vy, event.Num(3)))
	cmp := b.Cmp(event.LT, sum, b.ConstNum(event.Num(4)))
	b.Target(targetName, b.And(vx, cmp))
	b.Target("t2", b.Or(vx, vy))
	_ = b.Pow(sum, 2) // swept away unless reachable
	return b.Build()
}

func TestEqualDeterministicBuilds(t *testing.T) {
	if !Equal(buildEqNet(0.5, "t1"), buildEqNet(0.5, "t1")) {
		t.Fatal("identical builds compare unequal")
	}
}

func TestEqualIgnoresProbabilities(t *testing.T) {
	// Marginal probabilities are replay inputs, not structure: a circuit
	// traced over the network is valid for any assignment, so equality must
	// hold when only probabilities change.
	if !Equal(buildEqNet(0.5, "t1"), buildEqNet(0.7, "t1")) {
		t.Fatal("a probability change made the networks unequal")
	}
}

func TestEqualSeesStructureAndTargets(t *testing.T) {
	base := buildEqNet(0.5, "t1")
	if Equal(base, buildEqNet(0.5, "renamed")) {
		t.Fatal("a target rename went unseen")
	}
	// A different constant payload grounds a different network; so does
	// −0 in place of +0, which hash-consing also keeps apart.
	payload := func(c float64) *Net {
		sp := event.NewSpace()
		x := sp.Add("x", 0.5)
		y := sp.Add("y", 0.5)
		b := NewBuilder(sp, nil)
		vx, vy := b.Var(x), b.Var(y)
		sum := b.Sum(b.CondVal(vx, event.Num(2)), b.CondVal(vy, event.Num(c)))
		cmp := b.Cmp(event.LT, sum, b.ConstNum(event.Num(4)))
		b.Target("t1", b.And(vx, cmp))
		b.Target("t2", b.Or(vx, vy))
		return b.Build()
	}
	if Equal(base, payload(99)) {
		t.Fatal("a payload change went unseen")
	}
	if Equal(payload(0), payload(math.Copysign(0, -1))) {
		t.Fatal("−0 in place of +0 went unseen")
	}
}

func TestEqualSeesSpaceGrowth(t *testing.T) {
	// An unused variable does not change the grounded nodes, but it changes
	// the probability-vector length a circuit replay expects, so it must
	// break equality (the stream plane would otherwise reuse a circuit whose
	// NumVars no longer matches the space).
	mk := func(extra bool) *Net {
		sp := event.NewSpace()
		x := sp.Add("x", 0.5)
		if extra {
			sp.Add("unused", 0.5)
		}
		b := NewBuilder(sp, nil)
		b.Target("t", b.Var(x))
		return b.Build()
	}
	if Equal(mk(false), mk(true)) {
		t.Fatal("space growth went unseen")
	}
}

// The three TestIsomorphic* cases are named after the canonical-numbering
// comparison they were written for. Hash-consing carries the same
// properties within one builder, and Equal and Eval across builds, so that
// is what they pin.

// TestIsomorphicPermutedConstruction builds (x∧y)∨¬z with its children
// permuted and its DAG built bottom-up in a different sequence: within one
// builder both orders intern to one node, and two separate builds ground
// nets of the same size whose targets agree in every world.
func TestIsomorphicPermutedConstruction(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.3)
	y := sp.Add("y", 0.5)
	z := sp.Add("z", 0.7)
	first := func(b *Builder) NodeID {
		return b.Or(b.And(b.Var(x), b.Var(y)), b.Not(b.Var(z)))
	}
	second := func(b *Builder) NodeID {
		nz := b.Not(b.Var(z)) // build the negation first, swap ∧/∨ child order
		return b.Or(nz, b.And(b.Var(y), b.Var(x)))
	}

	one := NewBuilder(sp, nil)
	if first(one) != second(one) {
		t.Fatal("permuted construction must intern to one node")
	}

	a := NewBuilder(sp, nil)
	a.Target("t", first(a))
	na := a.Build()
	b := NewBuilder(sp, nil)
	b.Target("t", second(b))
	nb := b.Build()
	if na.NumNodes() != nb.NumNodes() {
		t.Fatalf("permuted builds have %d and %d nodes", na.NumNodes(), nb.NumNodes())
	}
	worlds.Enumerate(sp, func(nu event.SliceValuation, _ float64) bool {
		va := na.Eval(nu).Bools[na.Targets[0].Node]
		vb := nb.Eval(nu).Bools[nb.Targets[0].Node]
		if va != vb {
			t.Fatalf("world %v: permuted builds disagree (%v vs %v)", nu, va, vb)
		}
		return true
	})
}

// TestIsomorphicDetectsDifferences: x∧y and x∨y intern to different nodes,
// and a different connective or target name makes two builds unequal.
func TestIsomorphicDetectsDifferences(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.3)
	y := sp.Add("y", 0.5)

	one := NewBuilder(sp, nil)
	if one.And(one.Var(x), one.Var(y)) == one.Or(one.Var(x), one.Var(y)) {
		t.Fatal("x∧y and x∨y interned to one node")
	}

	build := func(name string, or bool) *Net {
		b := NewBuilder(sp, nil)
		n := b.And(b.Var(x), b.Var(y))
		if or {
			n = b.Or(b.Var(x), b.Var(y))
		}
		b.Target(name, n)
		return b.Build()
	}
	if Equal(build("t", false), build("t", true)) {
		t.Fatal("x∧y vs x∨y must not be equal")
	}
	if Equal(build("t", false), build("u", false)) {
		t.Fatal("mismatched target names must not be equal")
	}
}

// TestIsomorphicSumOrderIsSignificant: Σ keeps its children in construction
// order, because float addition is order-sensitive, so reordered Σ
// children are a different node and a different network.
func TestIsomorphicSumOrderIsSignificant(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.3)
	y := sp.Add("y", 0.5)
	cmp := func(b *Builder, swap bool) NodeID {
		bx := b.CondVal(b.Var(x), event.Num(1))
		by := b.CondVal(b.Var(y), event.Num(2))
		s := b.Sum(bx, by)
		if swap {
			s = b.Sum(by, bx)
		}
		return b.Cmp(event.LT, s, b.ConstNum(event.Num(5)))
	}

	one := NewBuilder(sp, nil)
	if cmp(one, false) == cmp(one, true) {
		t.Fatal("reordered Σ children interned to one node")
	}

	net := func(swap bool) *Net {
		b := NewBuilder(sp, nil)
		b.Target("s", cmp(b, swap))
		return b.Build()
	}
	if Equal(net(false), net(true)) {
		t.Fatal("reordered Σ children must not count as equal")
	}
}
