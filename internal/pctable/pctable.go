// Package pctable implements probabilistic-conditioned tables (pc-tables)
// with selection, natural join and a COUNT aggregate over them — the
// substrate ENFrame's loadData() uses to pull uncertain objects from a
// database (§2 "Input data"; the paper delegates this to the SPROUT engine
// [14], which this package stands in for). Each tuple carries a lineage
// event over the shared variable space; a join conjoins its inputs'
// lineage. COUNT is a c-value node built into a network.Builder, evaluated
// per world by Net.Eval like every other c-value, and tuple probabilities
// are exact compilations of the lineage.
package pctable

import (
	"fmt"
	"strconv"

	"enframe/internal/event"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/vec"
)

// Value is an attribute value: a string or a float64 (ints are floats).
type Value struct {
	IsStr bool
	S     string
	F     float64
}

// Str returns a string attribute value.
func Str(s string) Value { return Value{IsStr: true, S: s} }

// Num returns a numeric attribute value.
func Num(f float64) Value { return Value{F: f} }

func (v Value) String() string {
	if v.IsStr {
		return v.S
	}
	return fmt.Sprintf("%g", v.F)
}

// Equal compares attribute values.
func (v Value) Equal(w Value) bool { return v == w }

// Tuple is one row with its lineage event Φ.
type Tuple struct {
	Values  []Value
	Lineage event.Expr
}

// Relation is a pc-table: a schema plus tuples annotated with events.
type Relation struct {
	Name   string
	Schema []string
	Tuples []Tuple
}

// NewRelation returns an empty pc-table with the given schema.
func NewRelation(name string, schema ...string) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Insert appends a tuple with the given lineage (nil means certain).
func (r *Relation) Insert(lineage event.Expr, vals ...Value) *Relation {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("pctable: %s: inserted %d values into schema of %d", r.Name, len(vals), len(r.Schema)))
	}
	if lineage == nil {
		lineage = event.True
	}
	r.Tuples = append(r.Tuples, Tuple{Values: vals, Lineage: lineage})
	return r
}

func (r *Relation) col(name string) int {
	for i, c := range r.Schema {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("pctable: relation %s has no attribute %q", r.Name, name))
}

// Pred is a tuple predicate for selections.
type Pred func(get func(col string) Value) bool

// Select keeps the tuples satisfying the predicate; lineage is unchanged.
func (r *Relation) Select(pred Pred) *Relation {
	out := NewRelation(r.Name+"_sel", r.Schema...)
	for _, t := range r.Tuples {
		tt := t
		if pred(func(c string) Value { return tt.Values[r.col(c)] }) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Join computes the natural join; joined tuples carry the conjunction of
// their inputs' lineage.
func (r *Relation) Join(s *Relation) *Relation {
	var shared []string
	for _, c := range r.Schema {
		for _, d := range s.Schema {
			if c == d {
				shared = append(shared, c)
			}
		}
	}
	var extra []string
	for _, d := range s.Schema {
		if !contains(shared, d) {
			extra = append(extra, d)
		}
	}
	out := NewRelation(r.Name+"_"+s.Name, append(append([]string{}, r.Schema...), extra...)...)
	for _, t := range r.Tuples {
		for _, u := range s.Tuples {
			match := true
			for _, c := range shared {
				if !t.Values[r.col(c)].Equal(u.Values[s.col(c)]) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			vals := append(append([]Value{}, t.Values...), nil...)
			for _, d := range extra {
				vals = append(vals, u.Values[s.col(d)])
			}
			out.Tuples = append(out.Tuples, Tuple{
				Values:  vals,
				Lineage: event.NewAnd(t.Lineage, u.Lineage),
			})
		}
	}
	return out
}

// TupleProb computes the marginal probability of each result tuple: it
// builds one network with every tuple's lineage as a target and compiles it
// exactly.
func (r *Relation) TupleProb(space *event.Space) ([]float64, error) {
	if len(r.Tuples) == 0 {
		return nil, nil
	}
	b := network.NewBuilder(space, nil)
	for i, t := range r.Tuples {
		b.Target(strconv.Itoa(i), b.AddExpr(t.Lineage))
	}
	res, err := prob.Compile(b.Build(), prob.Options{Strategy: prob.Exact})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(res.Targets))
	for i, tb := range res.Targets {
		out[i] = tb.Estimate()
	}
	return out, nil
}

// AggCount builds the c-value Σ_t Φ(t) ⊗ 1 into b — the semimodule-style
// aggregation of [14] as a network node: the number of tuples present in a
// world (u when none is).
func (r *Relation) AggCount(b *network.Builder) network.NodeID {
	terms := make([]network.NodeID, len(r.Tuples))
	for i, t := range r.Tuples {
		terms[i] = b.CondVal(b.AddExpr(t.Lineage), event.Num(1))
	}
	return b.Sum(terms...)
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// Objects converts a query result into uncertain data points for
// clustering: the named numeric columns become feature coordinates and each
// tuple's lineage conditions the point's existence — ENFrame's
// loadData()-from-query path (§2).
func (r *Relation) Objects(featureCols ...string) []lineage.Object {
	idx := make([]int, len(featureCols))
	for i, c := range featureCols {
		idx[i] = r.col(c)
	}
	out := make([]lineage.Object, len(r.Tuples))
	for i, t := range r.Tuples {
		pos := make(vec.Vec, len(idx))
		for d, j := range idx {
			pos[d] = t.Values[j].F
		}
		out[i] = lineage.Object{ID: i, Pos: pos, Lineage: t.Lineage}
	}
	return out
}
