package network

import (
	"fmt"
	"math"
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
	if got := b.And(vx, b.Bool(false)); b.recs[got].kind != KConst {
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

func TestConstantFolding(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	c3 := b.ConstNum(event.Num(3))
	c4 := b.ConstNum(event.Num(4))
	// Constant comparison folds to a Boolean constant.
	if n := b.recs[b.Cmp(event.LE, c3, c4)]; n.kind != KConst || n.arg == 0 {
		t.Errorf("3 ≤ 4 folded to %v", n)
	}
	// Constant sum terms merge.
	g := b.CondVal(b.Var(x), event.Num(10))
	sum := b.Sum(c3, g, c4)
	if kids := b.kidsOf(sum); len(kids) != 2 {
		t.Errorf("Σ(3, x⊗10, 4) has %d children, want 2 (guarded + folded const)", len(kids))
	}
	// Products annihilate on certainly-undefined factors.
	u := b.CondVal(b.Bool(false), event.U)
	if v := b.constOf(b.Prod(c3, u)); v == nil || !v.IsUndef() {
		t.Error("Π with a certain-u factor must fold to u")
	}
	// dist between constants folds.
	va := b.ConstNum(event.Vect(vec.New(0, 0)))
	vb := b.ConstNum(event.Vect(vec.New(3, 4)))
	if v := b.constOf(b.Dist(va, vb)); v == nil || v.S != 5 {
		t.Errorf("dist of constants folded to %v", v)
	}
	// Inv and Pow fold, including 0⁻¹ = u.
	if v := b.constOf(b.Inv(b.ConstNum(event.Num(0)))); v == nil || !v.IsUndef() {
		t.Error("0⁻¹ must fold to u")
	}
	if v := b.constOf(b.Pow(c3, 2)); v == nil || v.S != 9 {
		t.Errorf("3² folded to %v", v)
	}
}

// TestDistFoldsGuardedPayloads: dist of two uncertain ⊗ nodes is one ⊗ node
// guarded by g₁∧g₂ carrying DistVal(v₁, v₂); a u payload or a ⊥ guard still
// gives u; DisableConstFold keeps the KDist node; and in every world the
// folded node evaluates to what the unfolded KDist evaluates to.
func TestDistFoldsGuardedPayloads(t *testing.T) {
	sp := event.NewSpace()
	x, y := sp.Add("x", 0.5), sp.Add("y", 0.5)
	pa, pb := event.Vect(vec.New(0, 0)), event.Vect(vec.New(3, 4))
	build := func(fold bool) (*Builder, NodeID) {
		b := NewBuilder(sp, nil)
		if !fold {
			b.DisableConstFold()
		}
		return b, b.Dist(b.CondVal(b.Var(x), pa), b.CondVal(b.Var(y), pb))
	}

	b, d := build(true)
	if rd := b.recs[d]; rd.kind != KCondVal {
		t.Fatalf("dist(x⊗a, y⊗b) is a %s node, want condval", rd.kind)
	}
	if g, want := b.kids[b.recs[d].off], b.And(b.Var(x), b.Var(y)); g != want {
		t.Errorf("folded guard is node %d, want x∧y = %d", g, want)
	}
	if v, want := b.vals[b.recs[d].arg], event.DistVal(vec.Euclidean, pa, pb); !sameBits(&v, &want) {
		t.Errorf("folded value %v, want %v", v, want)
	}
	// Guard merges the fold's guard into one ⊗ node, as the k-medoids Σ
	// terms InCl ∧ dist(O[l], O[p]) do.
	z := b.Var(sp.Add("z", 0.5))
	if gd := b.Guard(z, d); b.recs[gd].kind != KCondVal || b.kids[b.recs[gd].off] != b.And(z, b.Var(x), b.Var(y)) {
		t.Errorf("z ∧ dist(x⊗a, y⊗b) did not merge into one ⊗ node guarded by z∧x∧y")
	}
	for name, u := range map[string]NodeID{
		"u payload": b.CondVal(b.Var(x), event.U),
		"⊥ guard":   b.CondVal(b.Bool(false), pa),
		"certain u": b.ConstNum(event.U),
	} {
		if v := b.constOf(b.Dist(u, b.CondVal(b.Var(y), pb))); v == nil || !v.IsUndef() {
			t.Errorf("dist with a %s folded to %v, want u", name, v)
		}
	}

	nb, nd := build(false)
	if k := nb.recs[nd].kind; k != KDist {
		t.Errorf("with DisableConstFold dist is a %s node, want dist", k)
	}

	folded, unfolded := b.Build(), nb.Build()
	worlds.Enumerate(sp, func(nu event.SliceValuation, _ float64) bool {
		got, want := folded.Eval(nu).Nums[d], unfolded.Eval(nu).Nums[nd]
		if !got.Equal(want) {
			t.Errorf("world %v: folded dist %v, KDist %v", nu, got, want)
		}
		return true
	})
}

// TestValsShareBitIdenticalPayloads: ⊗ nodes with bit-identical c-values
// share one Net.Vals entry across guards, while +0 and −0 and distinct NaN
// payloads stay apart; equal builds stay Equal and a changed payload does
// not.
func TestValsShareBitIdenticalPayloads(t *testing.T) {
	sp := event.NewSpace()
	x, y := sp.Add("x", 0.5), sp.Add("y", 0.5)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	build := func(last float64) (*Net, []NodeID) {
		b := NewBuilder(sp, nil)
		vx, vy := b.Var(x), b.Var(y)
		ids := []NodeID{
			b.CondVal(vx, event.Num(5)),
			b.CondVal(vy, event.Num(5)),
			b.CondVal(vx, event.Num(0)),
			b.CondVal(vy, event.Num(math.Copysign(0, -1))),
			b.CondVal(vx, event.Num(nan1)),
			b.CondVal(vy, event.Num(nan2)),
			// A folded distance equal to the first payload shares it too.
			b.Dist(b.CondVal(vx, event.Vect(vec.New(0, 0))), b.CondVal(vy, event.Vect(vec.New(3, 4)))),
			b.CondVal(b.Not(vx), event.Num(last)),
		}
		return b.Build(), ids
	}
	net, ids := build(5)
	arg := func(i int) int32 { return net.Arg[ids[i]] }
	if arg(0) != arg(1) || arg(0) != arg(6) || arg(0) != arg(7) {
		t.Errorf("payload 5 under four guards has Vals indices %d %d %d %d, want one", arg(0), arg(1), arg(6), arg(7))
	}
	if arg(2) == arg(3) {
		t.Error("+0 and −0 share a Vals entry")
	}
	if arg(4) == arg(5) {
		t.Error("two NaN payloads share a Vals entry")
	}
	// 5, +0, −0, two NaNs and the two vectors.
	if len(net.Vals) != 7 {
		t.Errorf("%d Vals entries, want 7: %v", len(net.Vals), net.Vals)
	}
	again, _ := build(5)
	if !Equal(net, again) {
		t.Error("two identical builds are not Equal")
	}
	if other, _ := build(6); Equal(net, other) {
		t.Error("builds differing in one shared payload are Equal")
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
