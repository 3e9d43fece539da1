package network

import (
	"fmt"
	"math/rand"
	"testing"

	"enframe/internal/event"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

func TestHashConsing(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	y := sp.Add("y", 0.5)
	b := NewBuilder(sp, nil)
	a1 := b.And(b.Var(x), b.Var(y))
	a2 := b.And(b.Var(x), b.Var(y))
	if a1 != a2 {
		t.Error("structurally identical conjunctions must intern to one node")
	}
	c1 := b.CondVal(a1, event.Num(3))
	c2 := b.CondVal(a2, event.Num(3))
	if c1 != c2 {
		t.Error("identical ⊗ nodes must intern to one node")
	}
	if b.CondVal(a1, event.Num(4)) == c1 {
		t.Error("different payloads must not collide")
	}
}

func TestBooleanSimplification(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	vx := b.Var(x)
	if b.And(vx, b.Bool(true)) != vx {
		t.Error("x ∧ ⊤ must simplify to x")
	}
	if got := b.And(vx, b.Bool(false)); b.Build2Node(got).kind != KConst {
		t.Error("x ∧ ⊥ must fold to ⊥")
	}
	if b.Or(vx, b.Bool(false)) != vx {
		t.Error("x ∨ ⊥ must simplify to x")
	}
	if b.Not(b.Not(vx)) != vx {
		t.Error("double negation must cancel")
	}
	if b.And(vx, vx) != vx {
		t.Error("idempotent conjunction must collapse")
	}
}

// Build2Node exposes a node for white-box tests.
func (b *Builder) Build2Node(id NodeID) node { return b.nodes[id] }

func TestConstantFolding(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	c3 := b.ConstNum(event.Num(3))
	c4 := b.ConstNum(event.Num(4))
	// Constant comparison folds to a Boolean constant.
	if n := b.Build2Node(b.Cmp(event.LE, c3, c4)); n.kind != KConst || n.arg == 0 {
		t.Errorf("3 ≤ 4 folded to %v", n)
	}
	// Constant sum terms merge.
	g := b.CondVal(b.Var(x), event.Num(10))
	sum := b.Sum(c3, g, c4)
	if n := b.Build2Node(sum); len(n.kids) != 2 {
		t.Errorf("Σ(3, x⊗10, 4) has %d children, want 2 (guarded + folded const)", len(n.kids))
	}
	// Products annihilate on certainly-undefined factors.
	u := b.CondVal(b.Bool(false), event.U)
	if v, ok := b.constOf(b.Prod(c3, u)); !ok || !v.IsUndef() {
		t.Error("Π with a certain-u factor must fold to u")
	}
	// dist between constants folds.
	va := b.ConstNum(event.Vect(vec.New(0, 0)))
	vb := b.ConstNum(event.Vect(vec.New(3, 4)))
	if v, ok := b.constOf(b.Dist(va, vb)); !ok || v.S != 5 {
		t.Errorf("dist of constants folded to %v", v)
	}
	// Inv and Pow fold, including 0⁻¹ = u.
	if v, ok := b.constOf(b.Inv(b.ConstNum(event.Num(0)))); !ok || !v.IsUndef() {
		t.Error("0⁻¹ must fold to u")
	}
	if v, ok := b.constOf(b.Pow(c3, 2)); !ok || v.S != 9 {
		t.Errorf("3² folded to %v", v)
	}
}

func TestSweepRemovesGarbage(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	vx := b.Var(x)
	b.CondVal(vx, event.Num(1)) // dead node
	keep := b.Not(vx)
	b.Target("t", keep)
	net := b.Build()
	if net.NumNodes() != 2 {
		t.Errorf("swept network has %d nodes, want 2 (var + not)", net.NumNodes())
	}
	if net.Targets[0].Node != 1 {
		t.Errorf("target remapped to %d", net.Targets[0].Node)
	}
}

// TestEvalMatchesEventSemantics compiles random event expressions and
// checks network evaluation against the event evaluator on every world.
func TestEvalMatchesEventSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		sp := event.NewSpace()
		var vars []event.Expr
		for i := 0; i < 5; i++ {
			vars = append(vars, event.NewVar(sp.Add(fmt.Sprintf("x%d", i), 0.5), ""))
		}
		var mkB func(d int) event.Expr
		var mkN func(d int) event.NumExpr
		mkB = func(d int) event.Expr {
			if d == 0 {
				return vars[rng.Intn(len(vars))]
			}
			switch rng.Intn(4) {
			case 0:
				return event.NewAnd(mkB(d-1), mkB(d-1))
			case 1:
				return event.NewOr(mkB(d-1), mkB(d-1))
			case 2:
				return event.NewNot(mkB(d - 1))
			default:
				return event.NewAtom(event.LE, mkN(d-1), mkN(d-1))
			}
		}
		mkN = func(d int) event.NumExpr {
			if d == 0 {
				return event.NewCondVal(mkB(0), event.Num(float64(rng.Intn(5))))
			}
			switch rng.Intn(3) {
			case 0:
				return event.NewSum(mkN(d-1), mkN(d-1))
			case 1:
				return event.NewGuard(mkB(d-1), mkN(d-1))
			default:
				return event.NewInv(mkN(d - 1))
			}
		}
		e := mkB(3)
		b := NewBuilder(sp, nil)
		// No-fold keeps the node structure aligned with the AST.
		b.DisableConstFold()
		id := b.AddExpr(e)
		b.Target("t", id)
		net := b.Build()
		worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
			got := net.Eval(nu).Bools[net.Targets[0].Node]
			want := event.EvalExpr(e, nu)
			if got != want {
				t.Fatalf("trial %d: network %t vs event %t under %v (expr %v)",
					trial, got, want, nu, e)
			}
			return true
		})
	}
}

func TestTypesDetectErrors(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	va := b.CondVal(b.Var(x), event.Vect(vec.New(1, 2)))
	bad := b.Cmp(event.LE, va, va) // comparison over vectors
	b.Target("bad", bad)
	net := b.Build()
	if _, err := net.Types(); err == nil {
		t.Error("vector comparison must be rejected")
	}
}

func TestTypesVectorPropagation(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	b.DisableConstFold()
	vecNode := b.CondVal(b.Var(x), event.Vect(vec.New(1, 2)))
	scal := b.CondVal(b.Var(x), event.Num(2))
	sum := b.Sum(vecNode, vecNode)
	prod := b.Prod(scal, vecNode) // scalar_mult
	d := b.Dist(sum, prod)
	b.Target("t", b.Cmp(event.LE, d, scal))
	net := b.Build()
	types, err := net.Types()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ValueType]int{}
	for _, ty := range types {
		counts[ty]++
	}
	if counts[TVector] < 3 {
		t.Errorf("expected vector-typed nodes, got %v", counts)
	}
}
