package pctable

import (
	"math"
	"testing"

	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/worlds"
)

// sensors/readings fixture: two substations, uncertain readings.
func fixture() (*event.Space, *Relation, *Relation, []event.Expr) {
	sp := event.NewSpace()
	x1 := event.NewVar(sp.Add("x1", 0.6), "x1")
	x2 := event.NewVar(sp.Add("x2", 0.3), "x2")
	x3 := event.NewVar(sp.Add("x3", 0.5), "x3")

	sensors := NewRelation("sensors", "sid", "station")
	sensors.Insert(nil, Num(1), Str("north"))
	sensors.Insert(x1, Num(2), Str("south")) // sensor 2 may be offline

	readings := NewRelation("readings", "sid", "load", "pd")
	readings.Insert(x2, Num(1), Num(30), Num(5))
	readings.Insert(x3, Num(2), Num(70), Num(40))
	readings.Insert(nil, Num(1), Num(28), Num(4))
	return sp, sensors, readings, []event.Expr{x1, x2, x3}
}

func TestSelectJoinProject(t *testing.T) {
	sp, sensors, readings, _ := fixture()
	joined := sensors.Join(readings)
	if len(joined.Tuples) != 3 {
		t.Fatalf("join produced %d tuples, want 3", len(joined.Tuples))
	}
	south := joined.Select(func(get func(string) Value) bool {
		return get("station").Equal(Str("south"))
	})
	if len(south.Tuples) != 1 {
		t.Fatalf("selection produced %d tuples, want 1", len(south.Tuples))
	}
	// South reading exists iff sensor 2 online AND reading present:
	// Pr = 0.6 · 0.5.
	probs := tupleProb(t, south, sp)
	if !close2(probs[0], 0.3) {
		t.Errorf("Pr = %g, want 0.3", probs[0])
	}
	// Projection merges duplicate station values with ∨.
	stations := joined.Project("station")
	if len(stations.Tuples) != 2 {
		t.Fatalf("projection produced %d tuples, want 2", len(stations.Tuples))
	}
}

func TestProjectDisjoinsLineage(t *testing.T) {
	sp := event.NewSpace()
	x := event.NewVar(sp.Add("x", 0.5), "x")
	y := event.NewVar(sp.Add("y", 0.5), "y")
	r := NewRelation("r", "a", "b")
	r.Insert(x, Str("k"), Num(1))
	r.Insert(y, Str("k"), Num(2))
	p := r.Project("a")
	if len(p.Tuples) != 1 {
		t.Fatalf("got %d tuples, want 1", len(p.Tuples))
	}
	// Pr[x ∨ y] = 0.75.
	if got := tupleProb(t, p, sp)[0]; !close2(got, 0.75) {
		t.Errorf("Pr = %g, want 0.75", got)
	}
}

func TestUnionMergesDuplicates(t *testing.T) {
	sp := event.NewSpace()
	x := event.NewVar(sp.Add("x", 0.5), "x")
	y := event.NewVar(sp.Add("y", 0.5), "y")
	a := NewRelation("a", "v").Insert(x, Num(7))
	b := NewRelation("b", "v").Insert(y, Num(7)).Insert(nil, Num(8))
	u := a.Union(b)
	if len(u.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(u.Tuples))
	}
	if got := tupleProb(t, u, sp)[0]; !close2(got, 0.75) {
		t.Errorf("Pr = %g, want 0.75", got)
	}
}

// TestAggregatesMatchEnumeration checks the built aggregate nodes against
// per-world evaluation: in each world, SUM must equal the sum of the present
// tuples' loads and COUNT their number (u when none is present).
func TestAggregatesMatchEnumeration(t *testing.T) {
	sp, sensors, readings, _ := fixture()
	joined := sensors.Join(readings)
	b := network.NewBuilder(sp, nil)
	sum := joined.AggSum(b, "load")
	count := joined.AggCount(b)
	net := b.Build() // no targets: node ids are kept

	worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		wantSum := event.U
		wantCount := event.U
		ev := event.NewEvaluator(nu)
		for _, tup := range joined.Tuples {
			if ev.EvalExpr(tup.Lineage) {
				wantSum = event.Add(wantSum, event.Num(tup.Values[joined.col("load")].F))
				wantCount = event.Add(wantCount, event.Num(1))
			}
		}
		a := net.Eval(nu)
		if got := a.Nums[sum]; !got.Equal(wantSum) {
			t.Fatalf("world %v: sum %v, want %v", nu, got, wantSum)
		}
		if got := a.Nums[count]; !got.Equal(wantCount) {
			t.Fatalf("world %v: count %v, want %v", nu, got, wantCount)
		}
		return true
	})
}

// TestTupleProbOfFormulas checks TupleProb on one tuple per lineage shape:
// a variable, ∧, ∨, ¬ and both constants.
func TestTupleProbOfFormulas(t *testing.T) {
	sp := event.NewSpace()
	x := event.NewVar(sp.Add("x", 0.3), "x")
	y := event.NewVar(sp.Add("y", 0.5), "y")
	r := NewRelation("r", "i")
	lineages := []event.Expr{x, event.NewAnd(x, y), event.NewOr(x, y), event.NewNot(x), event.True, event.False}
	want := []float64{0.3, 0.15, 0.3 + 0.5 - 0.15, 0.7, 1, 0}
	for i, e := range lineages {
		r.Insert(e, Num(float64(i)))
	}
	got := tupleProb(t, r, sp)
	for i := range want {
		if !close2(got[i], want[i]) {
			t.Errorf("Pr[%v] = %g, want %g", lineages[i], got[i], want[i])
		}
	}
}

func TestGroupByAndObjects(t *testing.T) {
	sp, sensors, readings, _ := fixture()
	joined := sensors.Join(readings)
	groups := joined.GroupBy("station")
	keys := GroupKeys(groups)
	if len(keys) != 2 || keys[0] != "north" || keys[1] != "south" {
		t.Fatalf("group keys = %v", keys)
	}
	objs := joined.Objects("load", "pd")
	if len(objs) != 3 {
		t.Fatalf("got %d objects, want 3", len(objs))
	}
	if objs[2].Pos[0] != 70 || objs[2].Pos[1] != 40 {
		t.Errorf("object 2 position = %v", objs[2].Pos)
	}
	if objs[2].Lineage != joined.Tuples[2].Lineage {
		t.Error("object 2 must carry tuple 2's lineage")
	}
	if p := tupleProb(t, joined, sp)[2]; !close2(p, 0.3) {
		t.Errorf("object 2 existence probability = %g, want 0.3", p)
	}
}

func TestEmptyAggregatesAreUndefined(t *testing.T) {
	r := NewRelation("empty", "v")
	b := network.NewBuilder(event.NewSpace(), nil)
	sum, count := r.AggSum(b, "v"), r.AggCount(b)
	a := b.Build().Eval(event.SliceValuation{})
	if got := a.Nums[sum]; !got.IsUndef() {
		t.Errorf("empty SUM = %v, want u", got)
	}
	if got := a.Nums[count]; !got.IsUndef() {
		t.Errorf("empty COUNT = %v, want u", got)
	}
}

func tupleProb(t *testing.T, r *Relation, sp *event.Space) []float64 {
	t.Helper()
	probs, err := r.TupleProb(sp)
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func close2(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
