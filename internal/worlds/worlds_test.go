package worlds

import (
	"math"
	"testing"

	"enframe/internal/event"
)

func space(ps ...float64) *event.Space {
	sp := event.NewSpace()
	for _, p := range ps {
		sp.Add("x", p)
	}
	return sp
}

func TestEnumerateMassSumsToOne(t *testing.T) {
	sp := space(0.3, 0.5, 0.9)
	total := 0.0
	count := 0
	Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		total += p
		count++
		return true
	})
	if count != 8 {
		t.Errorf("visited %d valuations, want 8", count)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("total mass %g", total)
	}
}

func TestEnumerateDegenerateProbabilities(t *testing.T) {
	sp := space(0, 1, 0.5)
	count := 0
	Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		count++
		if nu[0] {
			t.Error("variable with Pr 0 enumerated true")
		}
		if !nu[1] {
			t.Error("variable with Pr 1 enumerated false")
		}
		return true
	})
	if count != 2 {
		t.Errorf("visited %d valuations, want 2", count)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	sp := space(0.5, 0.5)
	count := 0
	complete := Enumerate(sp, func(nu event.SliceValuation, p float64) bool {
		count++
		return count < 2
	})
	if complete || count != 2 {
		t.Errorf("complete=%t count=%d", complete, count)
	}
}

func TestPresenceAndKey(t *testing.T) {
	sp := event.NewSpace()
	x := event.NewVar(sp.Add("x", 0.5), "x")
	y := event.NewVar(sp.Add("y", 0.5), "y")
	evs := []event.Expr{x, event.NewAnd(x, y), event.True}
	nu := event.SliceValuation{true, false}
	key1, present, ok := KeyOf(evs, nu)
	if !ok {
		t.Fatal("key not computed")
	}
	if !present[0] || present[1] || !present[2] {
		t.Errorf("presence = %v", present)
	}
	key2, _, _ := KeyOf(evs, event.SliceValuation{true, true})
	if key1 == key2 {
		t.Error("different worlds produced identical keys")
	}
	key3, _, _ := KeyOf(evs, event.SliceValuation{true, false})
	if key1 != key3 {
		t.Error("same world produced different keys")
	}
}

func TestDistribution(t *testing.T) {
	d := Distribution{}
	d.Add("a", 0.25)
	d.Add("a", 0.25)
	d.Add("b", 0.5)
	if d["a"] != 0.5 || math.Abs(d.TotalMass()-1) > 1e-12 {
		t.Errorf("distribution %v", d)
	}
}
