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

// TestSelectJoinProject runs the query path of examples/pctable: a join and
// a selection, with the selected tuple's probability.
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
}

// TestGroupByAndObjects groups the joined readings by station with one
// selection per station value, and converts the result into clustering
// objects: feature columns become the position, lineage carries over, and
// each object's existence probability is its tuple's.
func TestGroupByAndObjects(t *testing.T) {
	sp, sensors, readings, _ := fixture()
	joined := sensors.Join(readings)
	for _, g := range []struct {
		station string
		n       int
	}{{"north", 2}, {"south", 1}} {
		group := joined.Select(func(get func(string) Value) bool {
			return get("station").Equal(Str(g.station))
		})
		if len(group.Tuples) != g.n {
			t.Errorf("group %s has %d tuples, want %d", g.station, len(group.Tuples), g.n)
		}
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

// TestAggregatesMatchEnumeration checks the built COUNT node against
// per-world evaluation: in each world it must equal the number of present
// tuples (u when none is present).
func TestAggregatesMatchEnumeration(t *testing.T) {
	sp, sensors, readings, _ := fixture()
	joined := sensors.Join(readings)
	b := network.NewBuilder(sp, nil)
	count := joined.AggCount(b)
	net := b.Build() // no targets: node ids are kept

	worlds.Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		wantCount := event.U
		ev := event.NewEvaluator(nu)
		for _, tup := range joined.Tuples {
			if ev.EvalExpr(tup.Lineage) {
				wantCount = event.Add(wantCount, event.Num(1))
			}
		}
		a := net.Eval(nu)
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

func TestEmptyAggregatesAreUndefined(t *testing.T) {
	r := NewRelation("empty", "v")
	b := network.NewBuilder(event.NewSpace(), nil)
	count := r.AggCount(b)
	a := b.Build().Eval(event.SliceValuation{})
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
