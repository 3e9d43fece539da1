// Package translate turns user programs (internal/lang) into event networks:
// the translation of §3.5 and the grounding of §4.1 in one streaming pass.
// Mutable program variables are tracked symbolically, arrays are flattened
// to one symbol per element, reduce_* calls become the aggregate events of
// the event language, and every event is interned into a hash-consed
// network.Builder the moment it is constructed. No event-program AST is
// built, and the getLabel declarations of Example 3 are not materialised:
// they only name intermediates, and no computation reads them. What is kept
// is the final binding of every program variable, as a node id.
//
// The §3 semantics check runs on the network this pass builds: for every
// generated program, internal/difftest evaluates each bound node in every
// possible world and compares it with the interpreter.
package translate

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/obs"
)

// External supplies the bindings for loadData(), loadParams(), and init(),
// mirroring interp.External but producing symbolic events: loadData binds
// O_l ≡ Φ(o_l) ⊗ o_l.
type External struct {
	Objects []lineage.Object
	// Space is the variable space of the objects' lineage. Translation does
	// not read it: events are interned into the caller's builder, which
	// carries its own space.
	Space *event.Space
	// Matrix backs a third loadData() binding: n × n edge weights, guarded
	// by both objects' lineage (DESIGN.md, "MCL semantics").
	Matrix      [][]float64
	Params      []int
	InitIndices []int
	// Obs, when non-nil, receives "check" and "translate+ground" spans under
	// the trace root, annotated with the symbol count.
	Obs *obs.Trace
}

// NetResult is the outcome of TranslateInto: the final bindings of every
// program variable as node ids in the caller's builder.
type NetResult struct {
	finalB map[string]network.NodeID
	finalN map[string]network.NodeID
}

// BoolNode returns the network node of a symbol's final Boolean event.
func (r *NetResult) BoolNode(sym string) (network.NodeID, bool) {
	id, ok := r.finalB[sym]
	return id, ok
}

// HasBool reports whether sym is bound to a final Boolean event.
func (r *NetResult) HasBool(sym string) bool {
	_, ok := r.finalB[sym]
	return ok
}

// NumNode returns the network node of a symbol's final c-value.
func (r *NetResult) NumNode(sym string) (network.NodeID, bool) {
	id, ok := r.finalN[sym]
	return id, ok
}

// SymbolsWithPrefix returns the flattened Boolean variable symbols starting
// with the given prefix, sorted lexicographically.
func (r *NetResult) SymbolsWithPrefix(prefix string) []string {
	var out []string
	for sym := range r.finalB {
		if strings.HasPrefix(sym, prefix) {
			out = append(out, sym)
		}
	}
	sort.Strings(out)
	return out
}

// Symbols returns every bound symbol, Boolean and numeric, sorted
// lexicographically.
func (r *NetResult) Symbols() []string {
	out := make([]string, 0, len(r.finalB)+len(r.finalN))
	for sym := range r.finalB {
		out = append(out, sym)
	}
	for sym := range r.finalN {
		out = append(out, sym)
	}
	sort.Strings(out)
	return out
}

// TranslateInto validates and translates a user program, emitting every
// event directly into b as it is constructed. The caller owns the builder:
// register targets against the returned bindings and Build() to finalise
// the network.
func TranslateInto(prog *lang.Program, ext External, b *network.Builder) (*NetResult, error) {
	checkSpan := ext.Obs.Root().Start("check")
	err := lang.Validate(prog)
	checkSpan.End()
	if err != nil {
		return nil, err
	}
	span := ext.Obs.Root().Start("translate+ground")
	defer span.End()
	tr := &translator{ext: ext, b: b, vars: make([]tval, len(prog.Names))}
	if err := tr.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	res := &NetResult{
		finalB: map[string]network.NodeID{},
		finalN: map[string]network.NodeID{},
	}
	for slot, v := range tr.vars {
		tr.export(res, prog.Names[slot], v)
	}
	span.SetInt("symbols", int64(len(res.finalB)+len(res.finalN)))
	return res, nil
}

// elemSym is the flattened symbol of element i of array symbol sym.
func elemSym(sym string, i int) string { return sym + "[" + strconv.Itoa(i) + "]" }

func (tr *translator) export(res *NetResult, sym string, v tval) {
	if v.kind == tArray {
		for i, el := range v.arr {
			tr.export(res, elemSym(sym, i), el)
		}
		return
	}
	if b, ok := v.boolRef(tr.b); ok {
		res.finalB[sym] = b
		return
	}
	if n, ok := v.numRef(tr.b); ok {
		res.finalN[sym] = n
	}
}

// tval is a symbolic value: a compile-time constant, a Boolean event, a
// c-value, an array, or the uninitialised placeholder; the zero tval is an
// unbound variable slot. Events are node ids in the translator's builder.
// Compile-time constants are only ever scalars or Booleans — literals,
// parameters, matrix cells, loop indices, and folds of those — so a tval
// stays small enough to return by value.
type tval struct {
	kind tkind
	// b is a Boolean constant; id the node of a Boolean event or of a
	// c-value; s a scalar constant; arr an array's cells.
	b   bool
	id  network.NodeID
	s   float64
	arr []tval
}

// tkind discriminates tval.
type tkind uint8

const (
	tUnbound tkind = iota
	tNone
	tScalar
	tTruth
	tEvent
	tNum
	tArray
)

// constTV wraps a folded compile-time constant, which is a scalar or a
// Boolean by construction.
func constTV(v event.Value) tval {
	switch v.Kind {
	case event.Scalar:
		return scalarTV(v.S)
	case event.Boolean:
		return tval{kind: tTruth, b: v.B}
	}
	panic(fmt.Sprintf("translate: %s compile-time constant", v.Kind))
}

func scalarTV(s float64) tval { return tval{kind: tScalar, s: s} }

func boolTV(id network.NodeID) tval { return tval{kind: tEvent, id: id} }

func numTV(id network.NodeID) tval { return tval{kind: tNum, id: id} }

func noneTV() tval { return tval{kind: tNone} }

func arrTV(cells []tval) tval { return tval{kind: tArray, arr: cells} }

// isConst reports whether the value is a compile-time constant; constV
// returns it.
func (v *tval) isConst() bool { return v.kind == tScalar || v.kind == tTruth }

func (v *tval) constV() event.Value {
	if v.kind == tTruth {
		return event.Bool(v.b)
	}
	return event.Num(v.s)
}

// boolRef lifts the value to a Boolean event node.
func (v *tval) boolRef(b *network.Builder) (network.NodeID, bool) {
	switch v.kind {
	case tEvent:
		return v.id, true
	case tTruth:
		return b.Bool(v.b), true
	}
	return 0, false
}

// numRef lifts the value to a c-value node.
func (v *tval) numRef(b *network.Builder) (network.NodeID, bool) {
	switch v.kind {
	case tNum:
		return v.id, true
	case tScalar:
		return b.ConstNum(event.Num(v.s)), true
	}
	return 0, false
}

func (v *tval) constInt() (int, bool) {
	if v.kind != tScalar {
		return 0, false
	}
	i := int(v.s)
	if float64(i) != v.s {
		return 0, false
	}
	return i, true
}

type translator struct {
	ext External
	b   *network.Builder
	// vars is the environment, indexed by the program's variable slots.
	vars []tval
}
