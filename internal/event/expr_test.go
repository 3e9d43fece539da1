package event

import (
	"math/rand"
	"testing"

	"enframe/internal/vec"
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

func TestGuardMergesIntoCondVal(t *testing.T) {
	sp := NewSpace()
	x := NewVar(sp.Add("x", 0.5), "x")
	y := NewVar(sp.Add("y", 0.5), "y")
	cv := NewCondVal(y, Num(3))
	g := NewGuard(x, cv)
	merged, ok := g.(*CondVal)
	if !ok {
		t.Fatalf("guard over ⊗ should merge into ⊗, got %T", g)
	}
	if _, ok := merged.Guard.(*And); !ok {
		t.Errorf("merged guard should be a conjunction, got %T", merged.Guard)
	}
	if NewGuard(True, cv) != cv {
		t.Error("⊤ ∧ v must be v")
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
		nu := MapValuation{xid: c.vx, yid: c.vy}
		if got := EvalExpr(e, nu); got != c.want {
			t.Errorf("xor(%t,%t) = %t, want %t", c.vx, c.vy, got, c.want)
		}
	}
}

func TestEvalNumConditional(t *testing.T) {
	sp := NewSpace()
	xid := sp.Add("x", 0.5)
	x := NewVar(xid, "x")
	// x⊗2 + ¬x⊗3
	n := NewSum(NewCondVal(x, Num(2)), NewCondVal(NewNot(x), Num(3)))
	if got := EvalNum(n, MapValuation{xid: true}, nil); !got.Equal(Num(2)) {
		t.Errorf("got %v, want 2", got)
	}
	if got := EvalNum(n, MapValuation{xid: false}, nil); !got.Equal(Num(3)) {
		t.Errorf("got %v, want 3", got)
	}
	// Empty sum of undefined parts: x⊗1 with x false gives u.
	if got := EvalNum(NewSum(NewCondVal(x, Num(1))), MapValuation{xid: false}, nil); !got.IsUndef() {
		t.Errorf("got %v, want u", got)
	}
}

func TestExampleTwoKMeansCentroid(t *testing.T) {
	// Example 2 of the paper: M0 = Φ(o0)⊗o0 + ¬Φ(o0)⊗o2, with
	// Φ(o0) = x1 ∨ x3.
	sp := NewSpace()
	x1 := NewVar(sp.Add("x1", 0.5), "x1")
	x3 := NewVar(sp.Add("x3", 0.5), "x3")
	phi := NewOr(x1, x3)
	o0, o2 := vec.New(0, 0), vec.New(4, 0)
	m0 := NewSum(NewCondVal(phi, Vect(o0)), NewCondVal(NewNot(phi), Vect(o2)))
	got := EvalNum(m0, MapValuation{0: true, 1: false}, nil)
	if !got.Equal(Vect(o0)) {
		t.Errorf("Φ true: M0 = %v, want o0", got)
	}
	got = EvalNum(m0, MapValuation{0: false, 1: false}, nil)
	if !got.Equal(Vect(o2)) {
		t.Errorf("Φ false: M0 = %v, want o2", got)
	}
}

func TestExactProb(t *testing.T) {
	sp := NewSpace()
	x := NewVar(sp.Add("x", 0.3), "x")
	y := NewVar(sp.Add("y", 0.5), "y")
	if got := ExactProb(x, sp); !almost(got, 0.3) {
		t.Errorf("Pr[x] = %g, want 0.3", got)
	}
	if got := ExactProb(NewAnd(x, y), sp); !almost(got, 0.15) {
		t.Errorf("Pr[x ∧ y] = %g, want 0.15", got)
	}
	if got := ExactProb(NewOr(x, y), sp); !almost(got, 0.3+0.5-0.15) {
		t.Errorf("Pr[x ∨ y] = %g, want 0.65", got)
	}
	if got := ExactProb(NewNot(x), sp); !almost(got, 0.7) {
		t.Errorf("Pr[¬x] = %g, want 0.7", got)
	}
	if got := ExactProb(True, sp); !almost(got, 1) {
		t.Errorf("Pr[⊤] = %g, want 1", got)
	}
	if got := ExactProb(False, sp); !almost(got, 0) {
		t.Errorf("Pr[⊥] = %g, want 0", got)
	}
}

func TestExactProbAtom(t *testing.T) {
	// Pr[[x⊗1 ≤ y⊗2]] — with u-comparisons true unless both defined and
	// violated: the atom is false only when x true, y false is impossible
	// since 1 ≤ u … enumerate by hand: comparison false iff both defined
	// and 1 ≤ 2 fails — never. So probability 1.
	sp := NewSpace()
	x := NewVar(sp.Add("x", 0.4), "x")
	y := NewVar(sp.Add("y", 0.6), "y")
	a := NewAtom(LE, NewCondVal(x, Num(1)), NewCondVal(y, Num(2)))
	if got := ExactProb(a, sp); !almost(got, 1) {
		t.Errorf("Pr = %g, want 1", got)
	}
	// Flipped: [x⊗2 ≤ y⊗1] is false iff both x and y true.
	b := NewAtom(LE, NewCondVal(x, Num(2)), NewCondVal(y, Num(1)))
	if got := ExactProb(b, sp); !almost(got, 1-0.4*0.6) {
		t.Errorf("Pr = %g, want %g", got, 1-0.24)
	}
}

func TestExactDistribution(t *testing.T) {
	sp := NewSpace()
	x := NewVar(sp.Add("x", 0.25), "x")
	n := NewSum(NewCondVal(x, Num(10)), NewConstNum(Num(1)))
	outs := ExactDistribution(n, sp, nil)
	if len(outs) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outs))
	}
	var p11, p1 float64
	for _, o := range outs {
		switch {
		case o.Val.Equal(Num(11)):
			p11 = o.Prob
		case o.Val.Equal(Num(1)):
			p1 = o.Prob
		}
	}
	if !almost(p11, 0.25) || !almost(p1, 0.75) {
		t.Errorf("distribution {11: %g, 1: %g}, want {11: 0.25, 1: 0.75}", p11, p1)
	}
}

func TestSupport(t *testing.T) {
	sp := NewSpace()
	xid, yid, zid := sp.Add("x", 0.5), sp.Add("y", 0.5), sp.Add("z", 0.5)
	x, y := NewVar(xid, "x"), NewVar(yid, "y")
	_ = zid
	e := NewAnd(x, NewAtom(LE, NewCondVal(y, Num(1)), NewConstNum(Num(2))))
	sup := Support(e)
	if len(sup) != 2 || sup[0] != xid || sup[1] != yid {
		t.Errorf("Support = %v, want [%d %d]", sup, xid, yid)
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
		nu := make(MapValuation)
		for i := 0; i < sp.Len(); i++ {
			nu[VarID(i)] = rng.Intn(2) == 0
		}
		if EvalExpr(lhs, nu) != EvalExpr(rhs, nu) {
			t.Fatalf("De Morgan violated for %v vs %v under %v", lhs, rhs, nu)
		}
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
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
