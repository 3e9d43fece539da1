// Package event implements ENFrame's event language (paper §3): the value
// domain of c-values — scalars and feature vectors extended with an
// undefined element u, with the §3.2 operations on them — the space of
// independent random variables, and Boolean lineage formulas over those
// variables with their semantics under valuations.
//
// Lineage formulas (Expr) are how internal/lineage and internal/pctable
// state input events. C-values and comparison atoms exist only as
// network.Builder nodes: the translator interns them straight into the
// network, and Net.Eval is their one per-world evaluator.
package event

import (
	"fmt"
	"math"

	"enframe/internal/vec"
)

// Kind discriminates the runtime values of the event domain.
type Kind uint8

const (
	// Undef is the special element u (u for vectors): the value of a
	// conditional value whose guard is false, and of 0⁻¹.
	Undef Kind = iota
	// Scalar is a real number.
	Scalar
	// Vector is a point in the feature space.
	Vector
	// Boolean is a truth value. Boolean values never appear inside
	// c-values (events encode them), but the per-world interpreter of the
	// user language stores them in the same domain.
	Boolean
)

func (k Kind) String() string {
	switch k {
	case Undef:
		return "undef"
	case Scalar:
		return "scalar"
	case Vector:
		return "vector"
	case Boolean:
		return "boolean"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an element of the extended value domain of §3.2: a scalar, a
// feature vector, a Boolean, or the undefined element u. The zero Value is
// undefined.
type Value struct {
	Kind Kind
	S    float64
	V    vec.Vec
	B    bool
}

// U is the undefined value u.
var U = Value{Kind: Undef}

// Num returns a scalar value.
func Num(s float64) Value { return Value{Kind: Scalar, S: s} }

// Vect returns a vector value.
func Vect(v vec.Vec) Value { return Value{Kind: Vector, V: v} }

// Bool returns a Boolean value.
func Bool(b bool) Value { return Value{Kind: Boolean, B: b} }

// IsUndef reports whether v is the undefined element.
func (v Value) IsUndef() bool { return v.Kind == Undef }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case Undef:
		return "u"
	case Scalar:
		return fmt.Sprintf("%g", v.S)
	case Vector:
		return v.V.String()
	case Boolean:
		return fmt.Sprintf("%t", v.B)
	}
	return "?"
}

// Equal reports whether two values are identical (undefined equals
// undefined; vectors compare component-wise).
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case Undef:
		return true
	case Scalar:
		return v.S == w.S || (math.IsNaN(v.S) && math.IsNaN(w.S))
	case Vector:
		return v.V.Equal(w.V)
	case Boolean:
		return v.B == w.B
	}
	return false
}

// AlmostEqual compares scalars and vectors within eps; other kinds must
// match exactly.
func (v Value) AlmostEqual(w Value, eps float64) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case Scalar:
		return math.Abs(v.S-w.S) <= eps
	case Vector:
		return v.V.AlmostEqual(w.V, eps)
	default:
		return v.Equal(w)
	}
}

// Add implements the extended +: u + x = x, x + u = x, and the natural sum
// on matching scalars or vectors. Adding a scalar to a vector panics — event
// programs are type checked before evaluation.
func Add(a, b Value) Value {
	if a.IsUndef() {
		return b
	}
	if b.IsUndef() {
		return a
	}
	switch {
	case a.Kind == Scalar && b.Kind == Scalar:
		return Num(a.S + b.S)
	case a.Kind == Vector && b.Kind == Vector:
		return Vect(a.V.Add(b.V))
	}
	panic(fmt.Sprintf("event: Add on %s and %s", a.Kind, b.Kind))
}

// Mul implements the extended ·: u annihilates (u · x = u), scalars multiply,
// and a scalar times a vector scales the vector (scalar_mult in the user
// language).
func Mul(a, b Value) Value {
	if a.IsUndef() || b.IsUndef() {
		return U
	}
	switch {
	case a.Kind == Scalar && b.Kind == Scalar:
		return Num(a.S * b.S)
	case a.Kind == Scalar && b.Kind == Vector:
		return Vect(b.V.Scale(a.S))
	case a.Kind == Vector && b.Kind == Scalar:
		return Vect(a.V.Scale(b.S))
	}
	panic(fmt.Sprintf("event: Mul on %s and %s", a.Kind, b.Kind))
}

// Inv implements the extended ⁻¹ on scalars: 0⁻¹ = u and u⁻¹ = u.
func Inv(a Value) Value {
	if a.IsUndef() {
		return U
	}
	if a.Kind != Scalar {
		panic(fmt.Sprintf("event: Inv on %s", a.Kind))
	}
	if a.S == 0 {
		return U
	}
	return Num(1 / a.S)
}

// PowVal raises a scalar to an integer power, propagating u.
func PowVal(a Value, exp int) Value {
	if a.IsUndef() {
		return U
	}
	if a.Kind != Scalar {
		panic(fmt.Sprintf("event: Pow on %s", a.Kind))
	}
	return Num(math.Pow(a.S, float64(exp)))
}

// DistVal computes the distance between two vector values under metric; the
// result is u when either argument is undefined.
func DistVal(metric vec.Distance, a, b Value) Value {
	if a.IsUndef() || b.IsUndef() {
		return U
	}
	if a.Kind != Vector || b.Kind != Vector {
		panic(fmt.Sprintf("event: Dist on %s and %s", a.Kind, b.Kind))
	}
	return Num(metric(a.V, b.V))
}

// CmpOp is a comparison operator of the ATOM production.
type CmpOp uint8

const (
	LE CmpOp = iota // ≤
	GE              // ≥
	EQ              // =
	LT              // <
	GT              // >
)

func (op CmpOp) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	case LT:
		return "<"
	case GT:
		return ">"
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Holds applies op to two floats.
func (op CmpOp) Holds(a, b float64) bool {
	switch op {
	case LE:
		return a <= b
	case GE:
		return a >= b
	case EQ:
		return a == b
	case LT:
		return a < b
	case GT:
		return a > b
	}
	panic("event: unknown comparison operator")
}

// Compare evaluates [a op b] under §3.2: the comparison is false only when
// both sides are defined scalars and op does not hold; any comparison
// involving u is true.
func Compare(op CmpOp, a, b Value) bool {
	if a.IsUndef() || b.IsUndef() {
		return true
	}
	if a.Kind != Scalar || b.Kind != Scalar {
		panic(fmt.Sprintf("event: Compare on %s and %s", a.Kind, b.Kind))
	}
	return op.Holds(a.S, b.S)
}
