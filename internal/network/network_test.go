package network

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// TestEvalMatchesEventSemantics compiles random lineage formulas and checks
// network evaluation against the event evaluator on every world.
func TestEvalMatchesEventSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		sp := event.NewSpace()
		var vars []event.Expr
		for i := 0; i < 5; i++ {
			vars = append(vars, event.NewVar(sp.Add(fmt.Sprintf("x%d", i), 0.5), ""))
		}
		var mkB func(d int) event.Expr
		mkB = func(d int) event.Expr {
			if d == 0 {
				return vars[rng.Intn(len(vars))]
			}
			switch rng.Intn(3) {
			case 0:
				return event.NewAnd(mkB(d-1), mkB(d-1))
			case 1:
				return event.NewOr(mkB(d-1), mkB(d-1))
			default:
				return event.NewNot(mkB(d - 1))
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
			want := event.NewEvaluator(nu).EvalExpr(e)
			if got != want {
				t.Fatalf("trial %d: network %t vs event %t under %v (expr %v)",
					trial, got, want, nu, e)
			}
			return true
		})
	}
}

// TestExampleTwoKMeansCentroid builds Example 2 of the paper,
// M0 = Φ(o0)⊗o0 + ¬Φ(o0)⊗o2 with Φ(o0) = x1 ∨ x3, and checks that M0 is o0
// exactly in the worlds where Φ(o0) holds and o2 in all others.
func TestExampleTwoKMeansCentroid(t *testing.T) {
	sp := event.NewSpace()
	x1, x3 := sp.Add("x1", 0.5), sp.Add("x3", 0.5)
	o0, o2 := event.Vect(vec.New(0, 0)), event.Vect(vec.New(4, 0))
	b := NewBuilder(sp, nil)
	phi := b.Or(b.Var(x1), b.Var(x3))
	m0 := b.Sum(b.CondVal(phi, o0), b.CondVal(b.Not(phi), o2))
	net := b.Build() // no targets: node ids are kept
	worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		want := o2
		if nu[x1] || nu[x3] {
			want = o0
		}
		if got := net.Eval(nu).Nums[m0]; !got.Equal(want) {
			t.Errorf("world %v: M0 = %v, want %v", nu, got, want)
		}
		return true
	})
}

// TestEvalConditionalSum checks x⊗2 + ¬x⊗3 in both worlds of x, and that a
// sum whose only term is undefined is u.
func TestEvalConditionalSum(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	b := NewBuilder(sp, nil)
	vx := b.Var(x)
	n := b.Sum(b.CondVal(vx, event.Num(2)), b.CondVal(b.Not(vx), event.Num(3)))
	lone := b.Sum(b.CondVal(vx, event.Num(1)))
	net := b.Build()
	if got := net.Eval(event.SliceValuation{true}).Nums[n]; !got.Equal(event.Num(2)) {
		t.Errorf("x true: got %v, want 2", got)
	}
	a := net.Eval(event.SliceValuation{false})
	if got := a.Nums[n]; !got.Equal(event.Num(3)) {
		t.Errorf("x false: got %v, want 3", got)
	}
	if got := a.Nums[lone]; !got.IsUndef() {
		t.Errorf("x false: x⊗1 = %v, want u", got)
	}
}

// TestGuardMergesIntoCondVal checks the builder's guard fold:
// g ∧ (h ⊗ v) becomes the single node (g ∧ h) ⊗ v, and ⊤ ∧ c is c.
func TestGuardMergesIntoCondVal(t *testing.T) {
	sp := event.NewSpace()
	x, y := sp.Add("x", 0.5), sp.Add("y", 0.5)
	b := NewBuilder(sp, nil)
	cv := b.CondVal(b.Var(y), event.Num(3))
	g := b.Guard(b.Var(x), cv)
	if b.recs[g].kind != KCondVal {
		t.Fatalf("guard over ⊗ should merge into ⊗, got %v", b.recs[g].kind)
	}
	if guard := b.kids[b.recs[g].off]; b.recs[guard].kind != KAnd {
		t.Errorf("merged guard should be a conjunction, got %v", b.recs[guard].kind)
	}
	if b.Guard(b.Bool(true), cv) != cv {
		t.Error("⊤ ∧ v must be v")
	}
}

// TestCmpWithUndefProbability sums world masses of two comparison atoms.
// Under §3.2 a comparison involving u is true, so [x⊗1 ≤ y⊗2] always holds
// and [x⊗2 ≤ y⊗1] fails only when both x and y are true.
func TestCmpWithUndefProbability(t *testing.T) {
	sp := event.NewSpace()
	x, y := sp.Add("x", 0.4), sp.Add("y", 0.6)
	b := NewBuilder(sp, nil)
	cv := func(v event.VarID, c float64) NodeID { return b.CondVal(b.Var(v), event.Num(c)) }
	holds := b.Cmp(event.LE, cv(x, 1), cv(y, 2))
	fails := b.Cmp(event.LE, cv(x, 2), cv(y, 1))
	net := b.Build()
	var pHolds, pFails float64
	worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		a := net.Eval(nu)
		if a.Bools[holds] {
			pHolds += p
		}
		if a.Bools[fails] {
			pFails += p
		}
		return true
	})
	if math.Abs(pHolds-1) > 1e-12 {
		t.Errorf("Pr[x⊗1 ≤ y⊗2] = %g, want 1", pHolds)
	}
	if want := 1 - 0.4*0.6; math.Abs(pFails-want) > 1e-12 {
		t.Errorf("Pr[x⊗2 ≤ y⊗1] = %g, want %g", pFails, want)
	}
}

// TestDistributionOfConditionalSum accumulates the distribution of
// x⊗10 + ⊤⊗1 with Pr[x] = 0.25: 11 with 0.25, 1 with 0.75.
func TestDistributionOfConditionalSum(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.25)
	b := NewBuilder(sp, nil)
	n := b.Sum(b.CondVal(b.Var(x), event.Num(10)), b.ConstNum(event.Num(1)))
	net := b.Build()
	d := worlds.Distribution{}
	worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		d.Add(net.Eval(nu).Nums[n].String(), p)
		return true
	})
	if len(d) != 2 || math.Abs(d["11"]-0.25) > 1e-12 || math.Abs(d["1"]-0.75) > 1e-12 {
		t.Errorf("distribution %v, want {11: 0.25, 1: 0.75}", d)
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

// buildRandom grows a seeded random network through every builder operation
// — ⊗ scalars and vectors, folds, sums, products, comparisons, distances —
// big enough that the index regrows past its first size, and builds it with
// a few targets.
func buildRandom(b *Builder, seed int64) *Net {
	rng := rand.New(rand.NewSource(seed))
	boolNodes := []NodeID{b.Bool(true)}
	numNodes := []NodeID{b.ConstNum(event.Num(1))}
	vecNodes := []NodeID{b.ConstNum(event.Vect(vec.New(1, 1)))}
	for x := range b.space.Len() {
		boolNodes = append(boolNodes, b.Var(event.VarID(x)))
	}
	pick := func(ns []NodeID) NodeID { return ns[rng.Intn(len(ns))] }
	for range 1500 {
		switch rng.Intn(9) {
		case 0:
			boolNodes = append(boolNodes, b.Not(pick(boolNodes)))
		case 1:
			boolNodes = append(boolNodes, b.And(pick(boolNodes), pick(boolNodes), pick(boolNodes)))
		case 2:
			boolNodes = append(boolNodes, b.Or(pick(boolNodes), pick(boolNodes)))
		case 3:
			numNodes = append(numNodes, b.CondVal(pick(boolNodes), event.Num(float64(rng.Intn(20)))))
		case 4:
			vecNodes = append(vecNodes, b.CondVal(pick(boolNodes), event.Vect(vec.New(float64(rng.Intn(5)), float64(rng.Intn(5))))))
		case 5:
			numNodes = append(numNodes, b.Sum(pick(numNodes), pick(numNodes)))
		case 6:
			numNodes = append(numNodes, b.Guard(pick(boolNodes), pick(numNodes)))
		case 7:
			boolNodes = append(boolNodes, b.Cmp(event.LE, pick(numNodes), pick(numNodes)))
		case 8:
			numNodes = append(numNodes, b.Dist(pick(vecNodes), pick(vecNodes)))
		}
	}
	for i := range 8 {
		b.Target(fmt.Sprintf("t%d", i), boolNodes[len(boolNodes)-1-i])
	}
	return b.Build()
}

// TestRecycledTableBuildsConcurrently builds two networks at once, one into
// a table the pool recycled from an earlier build and one into a fresh
// table; each must be Equal to its sequential build from a fresh table.
// `make test-race` runs it under the race detector.
func TestRecycledTableBuildsConcurrently(t *testing.T) {
	sp := event.NewSpace()
	for i := range 10 {
		sp.Add(fmt.Sprintf("x%d", i), 0.5)
	}
	want := [2]*Net{buildRandom(newBuilder(sp, nil, new(table)), 1), buildRandom(newBuilder(sp, nil, new(table)), 2)}
	recycled := 0
	for round := range 8 {
		buildRandom(NewBuilder(sp, nil), int64(100+round)) // leaves its table in the pool
		var got [2]*Net
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			b := NewBuilder(sp, nil)
			if cap(b.recs) > 0 {
				recycled++
			}
			got[0] = buildRandom(b, 1)
		}()
		go func() {
			defer wg.Done()
			got[1] = buildRandom(newBuilder(sp, nil, new(table)), 2)
		}()
		wg.Wait()
		for i := range got {
			if !Equal(got[i], want[i]) {
				t.Fatalf("round %d: concurrent build %d differs from its sequential build", round, i)
			}
		}
	}
	t.Logf("%d of 8 pooled builds drew a recycled table", recycled)
}

// TestBuilderSingleUse: a builder's table goes back to the pool at Build, so
// interning into the builder afterwards, or building it again, panics.
func TestBuilderSingleUse(t *testing.T) {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	for name, use := range map[string]func(b *Builder){
		"intern": func(b *Builder) { b.Var(x) },
		"build":  func(b *Builder) { b.Build() },
		"and":    func(b *Builder) { b.And(0, 0) },
	} {
		b := NewBuilder(sp, nil)
		b.Target("x", b.Var(x))
		b.Build()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Build did not panic", name)
				}
			}()
			use(b)
		}()
	}
}
