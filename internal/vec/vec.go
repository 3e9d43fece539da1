// Package vec provides the feature space used by ENFrame programs: dense
// real-valued vectors and the distance measures the user language exposes
// through its dist(A, B) builtin.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Vec is a point in the feature space. The zero value is the empty vector.
type Vec []float64

// New returns a vector with the given components.
func New(xs ...float64) Vec { return Vec(xs) }

// Add returns v + w. Both vectors must have equal dimension.
func (v Vec) Add(w Vec) Vec {
	mustMatch(v, w, "Add")
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w. Both vectors must have equal dimension.
func (v Vec) Sub(w Vec) Vec {
	mustMatch(v, w, "Sub")
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a·v.
func (v Vec) Scale(a float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	mustMatch(v, w, "Dot")
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Equal reports whether v and w are component-wise identical.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether v and w agree within eps in every component.
func (v Vec) AlmostEqual(w Vec, eps float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// String renders v as "(x0, x1, ...)".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", x)
	}
	b.WriteByte(')')
	return b.String()
}

func mustMatch(v, w Vec, op string) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: %s on mismatched dimensions %d and %d", op, len(v), len(w)))
	}
}

// Distance is a distance measure on the feature space.
type Distance func(a, b Vec) float64

// Euclidean is the L2 distance, the measure used throughout the paper's
// evaluation.
func Euclidean(a, b Vec) float64 {
	mustMatch(a, b, "Euclidean")
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SquaredEuclidean is the squared L2 distance. It avoids the square root and
// preserves nearest-neighbour order (but not distance sums).
func SquaredEuclidean(a, b Vec) float64 {
	mustMatch(a, b, "SquaredEuclidean")
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
