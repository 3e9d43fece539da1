package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	a, b := New(1, 2), New(3, 4)
	if got := a.Add(b); !got.Equal(New(4, 6)) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(New(2, 2)) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(New(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 11 {
		t.Errorf("Dot = %g", got)
	}
	if got := New(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %g", got)
	}
	if a.Equal(b) || !a.Equal(New(1, 2)) {
		t.Error("Equal misbehaves")
	}
	if !a.AlmostEqual(New(1+1e-12, 2), 1e-9) {
		t.Error("AlmostEqual within eps")
	}
	if a.AlmostEqual(New(1.1, 2), 1e-9) {
		t.Error("AlmostEqual outside eps")
	}
	if got := New(1.5, -2).String(); got != "(1.5, -2)" {
		t.Errorf("String = %q", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := New(0, 0), New(3, 4)
	if got := Euclidean(a, b); got != 5 {
		t.Errorf("Euclidean = %g", got)
	}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Errorf("SquaredEuclidean = %g", got)
	}
}

func TestMismatchedDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched dimensions")
		}
	}()
	New(1).Add(New(1, 2))
}

// Metric axioms on random vectors: symmetry, identity, triangle inequality.
func TestMetricAxioms(t *testing.T) {
	d := Euclidean
	err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		if anyNaNInf(ax, ay, bx, by, cx, cy) {
			return true
		}
		a, b, c := New(ax, ay), New(bx, by), New(cx, cy)
		if d(a, b) != d(b, a) {
			return false
		}
		if d(a, a) != 0 {
			return false
		}
		return d(a, c) <= d(a, b)+d(b, c)+1e-9*(1+d(a, b)+d(b, c))
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Errorf("euclidean: %v", err)
	}
}

func anyNaNInf(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
			return true
		}
	}
	return false
}
