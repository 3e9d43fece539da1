package event

import (
	"math"
	"testing"
	"testing/quick"

	"enframe/internal/vec"
)

func TestUndefPropagation(t *testing.T) {
	u := U
	five := Num(5)
	if got := Add(u, five); !got.Equal(five) {
		t.Errorf("u + 5 = %v, want 5", got)
	}
	if got := Add(five, u); !got.Equal(five) {
		t.Errorf("5 + u = %v, want 5", got)
	}
	if got := Add(u, u); !got.IsUndef() {
		t.Errorf("u + u = %v, want u", got)
	}
	if got := Mul(u, five); !got.IsUndef() {
		t.Errorf("u · 5 = %v, want u", got)
	}
	if got := Mul(five, u); !got.IsUndef() {
		t.Errorf("5 · u = %v, want u", got)
	}
	if got := Inv(Num(0)); !got.IsUndef() {
		t.Errorf("0⁻¹ = %v, want u", got)
	}
	if got := Inv(u); !got.IsUndef() {
		t.Errorf("u⁻¹ = %v, want u", got)
	}
	// The paper's example: 5 · (3−3)⁻¹ = 5 · u = u.
	if got := Mul(five, Inv(Num(3-3))); !got.IsUndef() {
		t.Errorf("5 · (3-3)⁻¹ = %v, want u", got)
	}
	if got := PowVal(u, 3); !got.IsUndef() {
		t.Errorf("u^3 = %v, want u", got)
	}
}

func TestVectorUndef(t *testing.T) {
	v := Vect(vec.New(1, 2))
	if got := Add(U, v); !got.Equal(v) {
		t.Errorf("u + v = %v, want v", got)
	}
	if got := Mul(U, v); !got.IsUndef() {
		t.Errorf("u · v = %v, want u", got)
	}
	if got := DistVal(vec.Euclidean, U, v); !got.IsUndef() {
		t.Errorf("dist(u, v) = %v, want u", got)
	}
	w := Vect(vec.New(4, 6))
	if got := DistVal(vec.Euclidean, v, w); got.Kind != Scalar || got.S != 5 {
		t.Errorf("dist((1,2),(4,6)) = %v, want 5", got)
	}
	if got := Mul(Num(2), v); !got.Equal(Vect(vec.New(2, 4))) {
		t.Errorf("2 · (1,2) = %v, want (2,4)", got)
	}
}

func TestCompareWithUndef(t *testing.T) {
	// §3.2: comparisons involving u evaluate to true.
	for _, op := range []CmpOp{LE, GE, EQ, LT, GT} {
		if !Compare(op, U, Num(1)) {
			t.Errorf("u %v 1 should be true", op)
		}
		if !Compare(op, Num(1), U) {
			t.Errorf("1 %v u should be true", op)
		}
		if !Compare(op, U, U) {
			t.Errorf("u %v u should be true", op)
		}
	}
	if Compare(LT, Num(2), Num(1)) {
		t.Error("2 < 1 should be false")
	}
	if !Compare(LE, Num(1), Num(1)) {
		t.Error("1 <= 1 should be true")
	}
	if Compare(EQ, Num(1), Num(2)) {
		t.Error("1 == 2 should be false")
	}
	if !Compare(GE, Num(2), Num(1)) {
		t.Error("2 >= 1 should be true")
	}
	if !Compare(GT, Num(2), Num(1)) {
		t.Error("2 > 1 should be true")
	}
}

// TestCmpOpFlip checks Holds against the operator with swapped operands:
// a op b ⇔ b flip(op) a.
func TestCmpOpFlip(t *testing.T) {
	flip := map[CmpOp]CmpOp{LE: GE, GE: LE, EQ: EQ, LT: GT, GT: LT}
	err := quick.Check(func(a, b float64) bool {
		for op, flipped := range flip {
			if op.Holds(a, b) != flipped.Holds(b, a) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAddCommutesOnDefined(t *testing.T) {
	err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Add(Num(a), Num(b)).Equal(Add(Num(b), Num(a)))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestValueEqualAndString(t *testing.T) {
	if !U.Equal(U) {
		t.Error("u must equal u")
	}
	if U.String() != "u" {
		t.Errorf("U.String() = %q", U.String())
	}
	if Num(1).Equal(Bool(true)) {
		t.Error("scalar must not equal boolean")
	}
	if !Vect(vec.New(1)).Equal(Vect(vec.New(1))) {
		t.Error("equal vectors must compare equal")
	}
	if Vect(vec.New(1)).Equal(Vect(vec.New(1, 2))) {
		t.Error("different-dimension vectors must differ")
	}
	if !Num(1).AlmostEqual(Num(1+1e-12), 1e-9) {
		t.Error("AlmostEqual within eps")
	}
	if Num(1).AlmostEqual(Num(1.1), 1e-9) {
		t.Error("AlmostEqual outside eps")
	}
}
