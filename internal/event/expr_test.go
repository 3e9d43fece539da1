package event

import (
	"math/rand"
	"testing"
)

func TestSmartConstructors(t *testing.T) {
	sp := NewSpace()
	x := NewVar(sp.Add("x", 0.5), "x")
	y := NewVar(sp.Add("y", 0.5), "y")

	if NewAnd() != True {
		t.Error("empty conjunction must be ⊤")
	}
	if NewOr() != False {
		t.Error("empty disjunction must be ⊥")
	}
	if NewAnd(x) != x {
		t.Error("unary conjunction must collapse")
	}
	if NewAnd(x, False) != False {
		t.Error("x ∧ ⊥ must be ⊥")
	}
	if NewAnd(x, True) != x {
		t.Error("x ∧ ⊤ must be x")
	}
	if NewOr(x, True) != True {
		t.Error("x ∨ ⊤ must be ⊤")
	}
	if NewOr(x, False) != x {
		t.Error("x ∨ ⊥ must be x")
	}
	if NewNot(NewNot(x)) != x {
		t.Error("double negation must cancel")
	}
	if NewNot(True) != False || NewNot(False) != True {
		t.Error("negated constants must fold")
	}
	// Flattening: (x ∧ y) ∧ x has two distinct conjuncts.
	a := NewAnd(NewAnd(x, y), x).(*And)
	if len(a.Es) != 2 {
		t.Errorf("flattened conjunction has %d conjuncts, want 2", len(a.Es))
	}
}

func TestEvalExprBasic(t *testing.T) {
	sp := NewSpace()
	xid, yid := sp.Add("x", 0.5), sp.Add("y", 0.5)
	x, y := NewVar(xid, "x"), NewVar(yid, "y")
	e := NewOr(NewAnd(x, NewNot(y)), NewAnd(NewNot(x), y)) // xor
	cases := []struct {
		vx, vy, want bool
	}{
		{false, false, false}, {true, false, true},
		{false, true, true}, {true, true, false},
	}
	for _, c := range cases {
		nu := make(SliceValuation, sp.Len())
		nu[xid], nu[yid] = c.vx, c.vy
		if got := EvalExpr(e, nu); got != c.want {
			t.Errorf("xor(%t,%t) = %t, want %t", c.vx, c.vy, got, c.want)
		}
	}
}

// TestRandomExprDeMorgan checks ¬(a ∧ b) ≡ ¬a ∨ ¬b on random expressions
// under random valuations.
func TestRandomExprDeMorgan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sp := NewSpace()
	var vars []Expr
	for i := 0; i < 6; i++ {
		vars = append(vars, NewVar(sp.Add("x", 0.5), "x"))
	}
	randExpr := func(depth int) Expr {
		var rec func(d int) Expr
		rec = func(d int) Expr {
			if d == 0 || rng.Intn(3) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			switch rng.Intn(3) {
			case 0:
				return NewAnd(rec(d-1), rec(d-1))
			case 1:
				return NewOr(rec(d-1), rec(d-1))
			default:
				return NewNot(rec(d - 1))
			}
		}
		return rec(depth)
	}
	for trial := 0; trial < 200; trial++ {
		a, b := randExpr(3), randExpr(3)
		lhs := NewNot(NewAnd(a, b))
		rhs := NewOr(NewNot(a), NewNot(b))
		nu := make(SliceValuation, sp.Len())
		for i := range nu {
			nu[i] = rng.Intn(2) == 0
		}
		if EvalExpr(lhs, nu) != EvalExpr(rhs, nu) {
			t.Fatalf("De Morgan violated for %v vs %v under %v", lhs, rhs, nu)
		}
	}
}

func TestSpaceValidation(t *testing.T) {
	sp := NewSpace()
	x := sp.Add("x", 0.25)
	if sp.Name(x) != "x" || sp.Prob(x) != 0.25 || sp.Len() != 1 {
		t.Error("space accessors broken")
	}
	sp.SetProb(x, 0.75)
	if sp.Prob(x) != 0.75 {
		t.Error("SetProb ineffective")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range probability must panic")
		}
	}()
	sp.Add("y", 1.5)
}
