package network

import (
	"math"
	"testing"

	"enframe/internal/event"
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
