// Package worlds implements the possible-worlds substrate: enumeration of
// the valuations ν : X → {true, false} of a variable space, their
// probability masses, and helpers to derive the possible worlds (present
// subsets) of a collection of uncertain objects. The naïve baseline and the
// brute-force differential tests are built on this package; the real
// probability-computation algorithms live in internal/prob.
package worlds

import "enframe/internal/event"

// MaxEnumerableVars bounds full enumeration; 2^30 valuations is already far
// beyond what the naïve baseline can visit before any sensible timeout.
const MaxEnumerableVars = 30

// Enumerate visits every valuation of the space together with its
// probability mass Pr(ν) = Π Px[ν(x)], in depth-first order with the true
// branch first (matching the decision-tree order of the prob package). The
// callback returns false to abort enumeration early; Enumerate reports
// whether the walk ran to completion.
func Enumerate(space *event.Space, fn func(nu event.SliceValuation, p float64) bool) bool {
	n := space.Len()
	if n > MaxEnumerableVars {
		panic("worlds: variable space too large to enumerate")
	}
	nu := make(event.SliceValuation, n)
	var rec func(i int, p float64) bool
	rec = func(i int, p float64) bool {
		if i == n {
			return fn(nu, p)
		}
		px := space.Prob(event.VarID(i))
		if px > 0 {
			nu[i] = true
			if !rec(i+1, p*px) {
				return false
			}
		}
		if px < 1 {
			nu[i] = false
			if !rec(i+1, p*(1-px)) {
				return false
			}
		}
		return true
	}
	return rec(0, 1)
}

// PresenceKey is a compact bitset identifying which objects of a fixed list
// exist in a world; it is comparable and therefore usable as a map key for
// world memoisation.
type PresenceKey struct {
	words [4]uint64 // supports up to 256 objects; larger sets use KeyOf's ok=false
	n     int
}

// KeyOf computes the presence bitset of the given lineage events under a
// valuation. ok is false when there are more objects than the key can hold,
// in which case callers must not memoise.
func KeyOf(lineage []event.Expr, nu event.Valuation) (key PresenceKey, present []bool, ok bool) {
	present = Presence(lineage, nu)
	if len(lineage) > 256 {
		return PresenceKey{}, present, false
	}
	key.n = len(lineage)
	for i, p := range present {
		if p {
			key.words[i/64] |= 1 << uint(i%64)
		}
	}
	return key, present, true
}

// Presence evaluates each object's lineage event under ν.
func Presence(lineage []event.Expr, nu event.Valuation) []bool {
	out := make([]bool, len(lineage))
	ev := event.NewEvaluator(nu)
	for i, e := range lineage {
		out[i] = ev.EvalExpr(e)
	}
	return out
}

// Distribution accumulates a probability per named outcome, e.g. the
// distribution of a c-value node from Enumerate plus network.Net.Eval.
type Distribution map[string]float64

// Add adds mass p to outcome key.
func (d Distribution) Add(key string, p float64) { d[key] += p }

// TotalMass returns the summed probability mass (≈1 for complete walks).
func (d Distribution) TotalMass() float64 {
	var s float64
	for _, p := range d {
		s += p
	}
	return s
}
