// Package lineage models uncertain data points and generates the correlation
// schemes of the paper's evaluation (§5 "Uncertainty"): positive
// correlations (disjunctions of l positive literals), mutex sets of
// cardinality at most m, and conditional correlations shaped as a Markov
// chain, plus independent lineage and certain points. Points are divided
// into groups that share identical lineage (group size 4 in the paper),
// which is realistic for uncertain time-series sensor data.
package lineage

import (
	"fmt"
	"math/rand"

	"enframe/internal/event"
	"enframe/internal/vec"
)

// Object is an uncertain data point: a fixed position in the feature space
// whose existence is conditioned on a Boolean event over the random
// variables of the space (Φ(o) in the paper).
type Object struct {
	ID      int
	Pos     vec.Vec
	Lineage event.Expr
}

// Scheme selects one of the correlation patterns of §5.
type Scheme uint8

const (
	// Independent gives every group its own fresh random variable.
	Independent Scheme = iota
	// Positive makes events disjunctions of L distinct positive literals
	// drawn from a pool of NumVars variables: points are positively
	// correlated or independent.
	Positive
	// Mutex partitions groups into sets of cardinality at most M; within
	// a set any two points are mutually exclusive, across sets
	// independent.
	Mutex
	// Conditional chains groups as a Markov chain: Φ_{i+1} =
	// (Φ_i ∧ xt_{i+1}) ∨ (¬Φ_i ∧ xf_{i+1}), introducing two fresh
	// variables per group.
	Conditional
)

func (s Scheme) String() string {
	switch s {
	case Independent:
		return "independent"
	case Positive:
		return "positive"
	case Mutex:
		return "mutex"
	case Conditional:
		return "conditional"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ParseScheme is String's inverse on the four scheme names.
func ParseScheme(s string) (Scheme, error) {
	for _, sc := range []Scheme{Independent, Positive, Mutex, Conditional} {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown correlation scheme %q (want independent, positive, mutex, or conditional)", s)
}

// Config parameterises lineage generation.
type Config struct {
	Scheme Scheme
	// GroupSize is the number of consecutive points sharing identical
	// lineage; the paper uses 4. Zero defaults to 4.
	GroupSize int
	// NumVars is the size of the variable pool for the Positive scheme
	// (the v axis of Fig. 6).
	NumVars int
	// L is the number of positive literals per event in the Positive
	// scheme (l = 8 in the paper).
	L int
	// M is the maximum mutex-set cardinality (m = 12 in the paper).
	M int
	// CertainFraction is the fraction c of points whose lineage is ⊤.
	CertainFraction float64
	// ProbLow and ProbHigh bound the marginal probabilities of the random
	// variables; the paper draws them uniformly from [0.5, 0.8]. Zero
	// values default to that range.
	ProbLow, ProbHigh float64
	// Seed drives all random choices; runs are reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GroupSize <= 0 {
		c.GroupSize = 4
	}
	if c.ProbLow == 0 && c.ProbHigh == 0 {
		c.ProbLow, c.ProbHigh = 0.5, 0.8
	}
	if c.L <= 0 {
		c.L = 8
	}
	if c.M <= 0 {
		c.M = 12
	}
	return c
}

// Attach builds uncertain objects from the given positions under the
// configured correlation scheme, returning the objects and the variable
// space their lineage ranges over.
func Attach(points []vec.Vec, cfg Config) ([]Object, *event.Space, error) {
	cfg = cfg.withDefaults()
	if cfg.CertainFraction < 0 || cfg.CertainFraction > 1 {
		return nil, nil, fmt.Errorf("lineage: certain fraction %g out of [0,1]", cfg.CertainFraction)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	space := event.NewSpace()
	newVar := func(name string) event.Expr {
		p := cfg.ProbLow + rng.Float64()*(cfg.ProbHigh-cfg.ProbLow)
		id := space.Add(name, p)
		return event.NewVar(id, name)
	}

	nGroups := (len(points) + cfg.GroupSize - 1) / cfg.GroupSize
	certainGroups := int(cfg.CertainFraction * float64(nGroups))
	certain := make([]bool, nGroups)
	for _, g := range rng.Perm(nGroups)[:certainGroups] {
		certain[g] = true
	}

	groupEvents := make([]event.Expr, nGroups)
	uncertainIdx := make([]int, 0, nGroups)
	for g := 0; g < nGroups; g++ {
		if certain[g] {
			groupEvents[g] = event.True
		} else {
			uncertainIdx = append(uncertainIdx, g)
		}
	}

	switch cfg.Scheme {
	case Independent:
		for _, g := range uncertainIdx {
			groupEvents[g] = newVar(fmt.Sprintf("x%d", g))
		}

	case Positive:
		v := cfg.NumVars
		if v <= 0 {
			return nil, nil, fmt.Errorf("lineage: positive scheme requires NumVars > 0")
		}
		pool := make([]event.Expr, v)
		for i := range pool {
			pool[i] = newVar(fmt.Sprintf("x%d", i))
		}
		l := cfg.L
		if l > v {
			l = v
		}
		for _, g := range uncertainIdx {
			lits := make([]event.Expr, 0, l)
			for _, i := range rng.Perm(v)[:l] {
				lits = append(lits, pool[i])
			}
			groupEvents[g] = event.NewOr(lits...)
		}

	case Mutex:
		// Φ(g_j) = x_j ∧ ¬x_1 ∧ … ∧ ¬x_{j-1} within each mutex set: at
		// most one member exists in any world, members of different sets
		// are independent.
		for start := 0; start < len(uncertainIdx); start += cfg.M {
			end := start + cfg.M
			if end > len(uncertainIdx) {
				end = len(uncertainIdx)
			}
			var prior []event.Expr
			for j := start; j < end; j++ {
				g := uncertainIdx[j]
				x := newVar(fmt.Sprintf("x%d_%d", start/cfg.M, j-start))
				conj := make([]event.Expr, 0, len(prior)+1)
				conj = append(conj, x)
				for _, pr := range prior {
					conj = append(conj, event.NewNot(pr))
				}
				groupEvents[g] = event.NewAnd(conj...)
				prior = append(prior, x)
			}
		}

	case Conditional:
		var prev event.Expr
		for i, g := range uncertainIdx {
			if i == 0 {
				prev = newVar("x0")
				groupEvents[g] = prev
				continue
			}
			xt := newVar(fmt.Sprintf("xt%d", i))
			xf := newVar(fmt.Sprintf("xf%d", i))
			cur := event.NewOr(
				event.NewAnd(prev, xt),
				event.NewAnd(event.NewNot(prev), xf),
			)
			groupEvents[g] = cur
			prev = cur
		}

	default:
		return nil, nil, fmt.Errorf("lineage: unknown scheme %v", cfg.Scheme)
	}

	objs := make([]Object, len(points))
	for i, p := range points {
		objs[i] = Object{ID: i, Pos: p, Lineage: groupEvents[i/cfg.GroupSize]}
	}
	return objs, space, nil
}

// Events extracts the lineage events of the objects, indexed by object.
func Events(objs []Object) []event.Expr {
	out := make([]event.Expr, len(objs))
	for i, o := range objs {
		out[i] = o.Lineage
	}
	return out
}

// Positions extracts the positions of the objects, indexed by object.
func Positions(objs []Object) []vec.Vec {
	out := make([]vec.Vec, len(objs))
	for i, o := range objs {
		out[i] = o.Pos
	}
	return out
}

// Certain builds objects that exist in every world (lineage ⊤) over an
// empty variable space extension; convenient for deterministic baselines.
func Certain(points []vec.Vec) []Object {
	objs := make([]Object, len(points))
	for i, p := range points {
		objs[i] = Object{ID: i, Pos: p, Lineage: event.True}
	}
	return objs
}
