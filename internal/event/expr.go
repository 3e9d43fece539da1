package event

import (
	"fmt"
	"strings"
)

// VarID identifies one of the independent Boolean random variables in the
// set X that induces the probability space (§3.3).
type VarID int

// Space holds the random variables of an event program: their names and
// their marginal probabilities of being true. Variables are independent;
// correlations between data points are expressed by the events themselves.
type Space struct {
	names []string
	probs []float64
}

// NewSpace returns an empty variable space.
func NewSpace() *Space { return &Space{} }

// Add introduces a fresh random variable with the given name and
// Pr[x = true] = p, returning its id.
func (s *Space) Add(name string, p float64) VarID {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("event: probability %g out of [0,1] for variable %q", p, name))
	}
	s.names = append(s.names, name)
	s.probs = append(s.probs, p)
	return VarID(len(s.names) - 1)
}

// Len reports the number of variables.
func (s *Space) Len() int { return len(s.names) }

// Name returns the name of variable x.
func (s *Space) Name(x VarID) string { return s.names[x] }

// Prob returns Pr[x = true].
func (s *Space) Prob(x VarID) float64 { return s.probs[x] }

// SetProb overwrites Pr[x = true].
func (s *Space) SetProb(x VarID, p float64) {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("event: probability %g out of [0,1]", p))
	}
	s.probs[x] = p
}

// Expr is a Boolean lineage formula: a propositional formula over random
// variables and constants. Expressions are immutable; shared subexpressions
// are shared Go pointers. The rest of §3.1's grammar — comparison atoms and
// c-values — exists only as network.Builder nodes.
type Expr interface {
	isExpr()
	String() string
}

// Var is a reference to a random variable x ∈ X.
type Var struct {
	X    VarID
	Name string
}

// Const is the constant ⊤ (B true) or ⊥.
type Const struct{ B bool }

// Not is ¬E.
type Not struct{ E Expr }

// And is the n-ary conjunction of its operands.
type And struct{ Es []Expr }

// Or is the n-ary disjunction of its operands.
type Or struct{ Es []Expr }

func (*Var) isExpr()   {}
func (*Const) isExpr() {}
func (*Not) isExpr()   {}
func (*And) isExpr()   {}
func (*Or) isExpr()    {}

// True and False are the shared constant events.
var (
	True  Expr = &Const{B: true}
	False Expr = &Const{B: false}
)

// NewVar returns a variable reference expression.
func NewVar(x VarID, name string) Expr { return &Var{X: x, Name: name} }

// NewNot returns ¬e with double negation and constants simplified.
func NewNot(e Expr) Expr {
	switch t := e.(type) {
	case *Const:
		if t.B {
			return False
		}
		return True
	case *Not:
		return t.E
	}
	return &Not{E: e}
}

// NewAnd returns the conjunction of es, flattening nested conjunctions,
// dropping ⊤, short-circuiting on ⊥, and deduplicating identical pointers.
func NewAnd(es ...Expr) Expr {
	flat := make([]Expr, 0, len(es))
	seen := make(map[Expr]bool, len(es))
	for _, e := range es {
		switch t := e.(type) {
		case *Const:
			if !t.B {
				return False
			}
			continue
		case *And:
			for _, c := range t.Es {
				if !seen[c] {
					seen[c] = true
					flat = append(flat, c)
				}
			}
			continue
		}
		if !seen[e] {
			seen[e] = true
			flat = append(flat, e)
		}
	}
	switch len(flat) {
	case 0:
		return True
	case 1:
		return flat[0]
	}
	return &And{Es: flat}
}

// NewOr returns the disjunction of es, flattening nested disjunctions,
// dropping ⊥, short-circuiting on ⊤, and deduplicating identical pointers.
func NewOr(es ...Expr) Expr {
	flat := make([]Expr, 0, len(es))
	seen := make(map[Expr]bool, len(es))
	for _, e := range es {
		switch t := e.(type) {
		case *Const:
			if t.B {
				return True
			}
			continue
		case *Or:
			for _, c := range t.Es {
				if !seen[c] {
					seen[c] = true
					flat = append(flat, c)
				}
			}
			continue
		}
		if !seen[e] {
			seen[e] = true
			flat = append(flat, e)
		}
	}
	switch len(flat) {
	case 0:
		return False
	case 1:
		return flat[0]
	}
	return &Or{Es: flat}
}

func (v *Var) String() string {
	if v.Name != "" {
		return v.Name
	}
	return fmt.Sprintf("x%d", v.X)
}

func (c *Const) String() string {
	if c.B {
		return "⊤"
	}
	return "⊥"
}

func (n *Not) String() string { return "¬" + parenthesize(n.E) }

func (a *And) String() string { return joinExprs(a.Es, " ∧ ") }
func (o *Or) String() string  { return joinExprs(o.Es, " ∨ ") }

func parenthesize(e Expr) string {
	switch e.(type) {
	case *And, *Or:
		return "(" + e.String() + ")"
	}
	return e.String()
}

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = parenthesize(e)
	}
	return strings.Join(parts, sep)
}
