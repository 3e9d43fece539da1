package lineage

import (
	"testing"

	"enframe/internal/event"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

func points(n int) []vec.Vec {
	pts := make([]vec.Vec, n)
	for i := range pts {
		pts[i] = vec.New(float64(i), 0)
	}
	return pts
}

func TestGroupsShareLineage(t *testing.T) {
	objs, _, err := Attach(points(8), Config{Scheme: Independent, GroupSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if objs[0].Lineage != objs[3].Lineage {
		t.Error("objects of one group must share lineage")
	}
	if objs[0].Lineage == objs[4].Lineage {
		t.Error("objects of different groups must not share lineage")
	}
}

func TestProbabilityRange(t *testing.T) {
	_, space, err := Attach(points(16), Config{Scheme: Independent, GroupSize: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < space.Len(); i++ {
		p := space.Prob(event.VarID(i))
		if p < 0.5 || p > 0.8 {
			t.Errorf("variable %d has probability %g outside the paper's [0.5, 0.8]", i, p)
		}
	}
}

func TestPositiveScheme(t *testing.T) {
	objs, space, err := Attach(points(12), Config{
		Scheme: Positive, GroupSize: 4, NumVars: 6, L: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if space.Len() != 6 {
		t.Errorf("space has %d variables, want 6", space.Len())
	}
	// Positive events are monotone: setting more variables true never
	// destroys an object.
	for _, o := range objs {
		allFalse := event.EvalExpr(o.Lineage, constantValuation(space, false))
		allTrue := event.EvalExpr(o.Lineage, constantValuation(space, true))
		if allFalse {
			t.Error("positive event true under the all-false valuation")
		}
		if !allTrue {
			t.Error("positive event false under the all-true valuation")
		}
	}
}

func TestMutexScheme(t *testing.T) {
	objs, space, err := Attach(points(9), Config{
		Scheme: Mutex, GroupSize: 1, M: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Within a mutex set, at most one object exists in any world.
	worlds.Enumerate(space, func(nu event.SliceValuation, p float64) bool {
		for set := 0; set < 3; set++ {
			alive := 0
			for j := 0; j < 3; j++ {
				if event.EvalExpr(objs[set*3+j].Lineage, nu) {
					alive++
				}
			}
			if alive > 1 {
				t.Fatalf("mutex set %d has %d objects alive in world %v", set, alive, nu)
			}
		}
		return true
	})
}

func TestConditionalSchemeIsAMarkovChain(t *testing.T) {
	objs, space, err := Attach(points(4), Config{
		Scheme: Conditional, GroupSize: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 fresh variables per group after the first: 1 + 2·3.
	if space.Len() != 7 {
		t.Errorf("space has %d variables, want 7", space.Len())
	}
	// Each Φ_{i+1} depends on Φ_i: the support of consecutive events
	// overlaps through the chain.
	for i := 0; i+1 < len(objs); i++ {
		s1 := support(objs[i].Lineage)
		s2 := support(objs[i+1].Lineage)
		if len(s2) <= len(s1) {
			t.Errorf("chain support must grow: |S%d| = %d, |S%d| = %d", i, len(s1), i+1, len(s2))
		}
	}
}

func TestCertainFraction(t *testing.T) {
	objs, space, err := Attach(points(20), Config{
		Scheme: Independent, GroupSize: 1, CertainFraction: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	certain := 0
	for _, o := range objs {
		if o.Lineage == event.True {
			certain++
		}
	}
	if certain != 10 {
		t.Errorf("%d certain objects, want 10", certain)
	}
	if space.Len() != 10 {
		t.Errorf("space has %d variables, want 10", space.Len())
	}
}

func TestCertainHelper(t *testing.T) {
	objs := Certain(points(3))
	for _, o := range objs {
		if o.Lineage != event.True {
			t.Error("Certain must produce ⊤ lineage")
		}
	}
	if got := Positions(objs); len(got) != 3 || !got[1].Equal(vec.New(1, 0)) {
		t.Errorf("Positions = %v", got)
	}
	if got := Events(objs); len(got) != 3 {
		t.Errorf("Events = %v", got)
	}
}

func TestAttachValidation(t *testing.T) {
	if _, _, err := Attach(points(4), Config{Scheme: Positive}); err == nil {
		t.Error("positive scheme without NumVars must fail")
	}
	if _, _, err := Attach(points(4), Config{CertainFraction: 1.5}); err == nil {
		t.Error("certain fraction out of range must fail")
	}
}

func TestSeedReproducibility(t *testing.T) {
	a, sa, _ := Attach(points(8), Config{Scheme: Positive, NumVars: 5, L: 2, Seed: 42})
	b, sb, _ := Attach(points(8), Config{Scheme: Positive, NumVars: 5, L: 2, Seed: 42})
	if sa.Len() != sb.Len() {
		t.Fatal("different variable counts for equal seeds")
	}
	for i := 0; i < sa.Len(); i++ {
		if sa.Prob(event.VarID(i)) != sb.Prob(event.VarID(i)) {
			t.Fatal("different probabilities for equal seeds")
		}
	}
	for i := range a {
		if a[i].Lineage.String() != b[i].Lineage.String() {
			t.Fatal("different lineage for equal seeds")
		}
	}
}

func constantValuation(space *event.Space, v bool) event.SliceValuation {
	nu := make(event.SliceValuation, space.Len())
	for i := range nu {
		nu[i] = v
	}
	return nu
}

// support returns the set of variables a lineage formula mentions.
func support(e event.Expr) map[event.VarID]bool {
	set := map[event.VarID]bool{}
	var walk func(event.Expr)
	walk = func(e event.Expr) {
		switch t := e.(type) {
		case *event.Var:
			set[t.X] = true
		case *event.Not:
			walk(t.E)
		case *event.And:
			for _, c := range t.Es {
				walk(c)
			}
		case *event.Or:
			for _, c := range t.Es {
				walk(c)
			}
		}
	}
	walk(e)
	return set
}
