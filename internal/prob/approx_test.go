package prob

import (
	"math"
	"testing"

	"enframe/internal/event"
	"enframe/internal/network"
)

// approxCase is one hand-computed network: build returns the net, want is
// the exact marginal of its single target.
type approxCase struct {
	name  string
	want  float64
	build func() *network.Net
}

// approxCases are small networks whose exact answers are computed by hand,
// pinning the ε-contract of every strategy against known ground truth
// (independent of the enumeration helpers used elsewhere in this package).
func approxCases() []approxCase {
	return []approxCase{
		{
			// P(x) = 0.3.
			name: "single-var", want: 0.3,
			build: func() *network.Net {
				sp := event.NewSpace()
				x := sp.Add("x", 0.3)
				b := network.NewBuilder(sp, nil)
				b.Target("t", b.Var(x))
				return b.Build()
			},
		},
		{
			// P(x ∨ y ∨ z) = 1 − 0.7·0.5·0.4 = 0.86.
			name: "or3", want: 0.86,
			build: func() *network.Net {
				sp := event.NewSpace()
				x, y, z := sp.Add("x", 0.3), sp.Add("y", 0.5), sp.Add("z", 0.6)
				b := network.NewBuilder(sp, nil)
				b.Target("t", b.Or(b.Var(x), b.Var(y), b.Var(z)))
				return b.Build()
			},
		},
		{
			// P(x ∧ y) = 0.4·0.5 = 0.2.
			name: "and2", want: 0.2,
			build: func() *network.Net {
				sp := event.NewSpace()
				x, y := sp.Add("x", 0.4), sp.Add("y", 0.5)
				b := network.NewBuilder(sp, nil)
				b.Target("t", b.And(b.Var(x), b.Var(y)))
				return b.Build()
			},
		},
		{
			// P(¬x) = 0.7.
			name: "not", want: 0.7,
			build: func() *network.Net {
				sp := event.NewSpace()
				x := sp.Add("x", 0.3)
				b := network.NewBuilder(sp, nil)
				b.Target("t", b.Not(b.Var(x)))
				return b.Build()
			},
		},
		{
			// P(x ⊕ y) = 0.3·0.6 + 0.7·0.4 = 0.46.
			name: "xor", want: 0.46,
			build: func() *network.Net {
				sp := event.NewSpace()
				x, y := sp.Add("x", 0.3), sp.Add("y", 0.4)
				b := network.NewBuilder(sp, nil)
				vx, vy := b.Var(x), b.Var(y)
				b.Target("t", b.Or(b.And(vx, b.Not(vy)), b.And(b.Not(vx), vy)))
				return b.Build()
			},
		},
		{
			// cnt = Σ CondVal(x,1), CondVal(y,1); target cnt ≥ 2. When both
			// guards are false the sum is the undefined value u, and a
			// comparison involving u holds (§2.1), so the target is true
			// when both variables hold OR neither does:
			// 0.3·0.4 + 0.7·0.6 = 0.54.
			name: "count-threshold-undefined", want: 0.54,
			build: func() *network.Net {
				sp := event.NewSpace()
				x, y := sp.Add("x", 0.3), sp.Add("y", 0.4)
				b := network.NewBuilder(sp, nil)
				cnt := b.Sum(b.CondVal(b.Var(x), event.Num(1)), b.CondVal(b.Var(y), event.Num(1)))
				b.Target("t", b.Cmp(event.GE, cnt, b.ConstNum(event.Num(2))))
				return b.Build()
			},
		},
		{
			// Adding a constant 0 summand makes the count defined in every
			// world, so cnt ≥ 1 is exactly x ∨ y = 1 − 0.7·0.6 = 0.58.
			name: "count-threshold-defined", want: 0.58,
			build: func() *network.Net {
				sp := event.NewSpace()
				x, y := sp.Add("x", 0.3), sp.Add("y", 0.4)
				b := network.NewBuilder(sp, nil)
				cnt := b.Sum(b.ConstNum(event.Num(0)),
					b.CondVal(b.Var(x), event.Num(1)), b.CondVal(b.Var(y), event.Num(1)))
				b.Target("t", b.Cmp(event.GE, cnt, b.ConstNum(event.Num(1))))
				return b.Build()
			},
		},
	}
}

// TestApproximationGuaranteeTable: for every case × strategy × ε, the
// bounds must contain the hand-computed truth, the gap must respect 2ε,
// and the estimate must be within ε of the truth. Exact mode must pin the
// truth to within 1e-12.
func TestApproximationGuaranteeTable(t *testing.T) {
	epsilons := []float64{0.01, 0.05, 0.2}
	for _, c := range approxCases() {
		t.Run(c.name, func(t *testing.T) {
			net := c.build()

			res, err := Compile(net, Options{Strategy: Exact})
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			tb := res.Targets[0]
			if tb.Gap() > 1e-12 || math.Abs(tb.Lower-c.want) > 1e-12 {
				t.Fatalf("exact: got [%.15g, %.15g], want %g", tb.Lower, tb.Upper, c.want)
			}

			for _, strat := range []Strategy{Eager, Lazy, Hybrid} {
				for _, eps := range epsilons {
					res, err := Compile(net, Options{Strategy: strat, Epsilon: eps})
					if err != nil {
						t.Fatalf("%v ε=%g: %v", strat, eps, err)
					}
					tb := res.Targets[0]
					if c.want < tb.Lower-1e-12 || c.want > tb.Upper+1e-12 {
						t.Errorf("%v ε=%g: truth %g outside [%g, %g]",
							strat, eps, c.want, tb.Lower, tb.Upper)
					}
					if tb.Gap() > 2*eps+1e-12 {
						t.Errorf("%v ε=%g: gap %g exceeds 2ε", strat, eps, tb.Gap())
					}
					if e := tb.Estimate(); math.Abs(e-c.want) > eps+1e-12 {
						t.Errorf("%v ε=%g: estimate %g off truth %g by more than ε",
							strat, eps, e, c.want)
					}
				}
			}
		})
	}
}

// TestBudgetedStrategiesPrune: with a generous budget the eager strategy
// must actually cut subtrees, while the lazy strategy never consumes an
// error budget (it stops expanding instead).
func TestBudgetedStrategiesPrune(t *testing.T) {
	sp := event.NewSpace()
	b := network.NewBuilder(sp, nil)
	var kids []network.NodeID
	for _, p := range []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.45} {
		kids = append(kids, b.Var(sp.Add("v", p)))
	}
	b.Target("t", b.Or(kids...))
	net := b.Build()

	eager, err := Compile(net, Options{Strategy: Eager, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if eager.Stats.BudgetPrunes == 0 {
		t.Error("eager with ε=0.4 never pruned a subtree")
	}
	lazy, err := Compile(net, Options{Strategy: Lazy, Epsilon: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Stats.BudgetPrunes != 0 {
		t.Errorf("lazy consumed an error budget: %d prunes", lazy.Stats.BudgetPrunes)
	}
}
