// Package translate turns user programs (internal/lang) into event programs
// (§3.5): mutable program variables become sequences of immutable event
// declarations whose names carry per-block assignment counters (the
// getLabel construction of Example 3, including the copy declarations
// emitted when a variable crosses a block boundary), arrays are flattened
// to one identifier per element, and reduce_* calls become the aggregate
// event expressions of the event language.
//
// One evaluator drives two emitters. TranslateInto is the front end
// (§3.5 + §4.1 in a single streaming pass): every event is interned into a
// hash-consed network.Builder the moment it is constructed, no AST is
// built, and the getLabel bookkeeping is skipped entirely because labelled
// declarations exist only to name intermediates in the AST artifact.
// Translate is not a second front end: it materialises the event-program
// AST for `enframe -dump-events` and for the §3 semantics oracle — the
// per-world check that every translated event evaluates to what the
// interpreter computes (internal/difftest, translate_test.go).
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
	Objects     []lineage.Object
	Space       *event.Space
	Matrix      [][]float64
	Params      []int
	InitIndices []int
	// Obs, when non-nil, receives "check" and "translate" spans under the
	// trace root, annotated with declaration and symbol counts.
	Obs *obs.Trace
}

// Result is a translated program: the grounded event program plus the final
// symbolic bindings of every program variable.
type Result struct {
	Program *event.Program
	finalB  map[string]event.Expr
	finalN  map[string]event.NumExpr
}

// BoolEvent returns the final Boolean event of a (flattened) variable
// symbol such as "InCl[0][2]".
func (r *Result) BoolEvent(sym string) (event.Expr, bool) {
	e, ok := r.finalB[sym]
	return e, ok
}

// NumEvent returns the final c-value of a variable symbol.
func (r *Result) NumEvent(sym string) (event.NumExpr, bool) {
	n, ok := r.finalN[sym]
	return n, ok
}

// NetResult is the outcome of the fused TranslateInto path: the final
// bindings of every program variable as node ids in the caller's builder.
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

// Translate validates and translates a user program over the given external
// bindings into the event-program AST (see the package comment for who
// reads it).
func Translate(prog *lang.Program, ext External) (*Result, error) {
	checkSpan := ext.Obs.Root().Start("check")
	err := lang.Validate(prog)
	checkSpan.End()
	if err != nil {
		return nil, err
	}
	span := ext.Obs.Root().Start("translate")
	defer span.End()
	space := ext.Space
	if space == nil {
		space = event.NewSpace()
	}
	ae := newASTEmitter(event.NewProgram(space))
	tr := newTranslator(prog, ext, ae)
	tr.decls = true
	tr.labels = map[string]*labelStack{}
	tr.frames = []*frame{{}}
	tr.slotOf = make(map[string]int, len(prog.Names))
	for slot, name := range prog.Names {
		tr.slotOf[name] = slot
	}
	if err := tr.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	res := &Result{
		Program: ae.prog,
		finalB:  map[string]event.Expr{},
		finalN:  map[string]event.NumExpr{},
	}
	for slot, v := range tr.vars {
		exportAST(ae, res, prog.Names[slot], v)
	}
	span.SetInt("decls", int64(len(ae.prog.Decls)))
	span.SetInt("symbols", int64(len(res.finalB)+len(res.finalN)))
	return res, nil
}

// TranslateInto validates and translates a user program, emitting every
// event directly into b as it is constructed. The
// caller owns the builder: register targets against the returned bindings
// and Build() to finalise the network.
func TranslateInto(prog *lang.Program, ext External, b *network.Builder) (*NetResult, error) {
	checkSpan := ext.Obs.Root().Start("check")
	err := lang.Validate(prog)
	checkSpan.End()
	if err != nil {
		return nil, err
	}
	span := ext.Obs.Root().Start("translate+ground")
	defer span.End()
	ne := &netEmitter{b: b}
	tr := newTranslator(prog, ext, ne)
	if err := tr.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	res := &NetResult{
		finalB: map[string]network.NodeID{},
		finalN: map[string]network.NodeID{},
	}
	for slot, v := range tr.vars {
		exportNet(ne, res, prog.Names[slot], v)
	}
	span.SetInt("symbols", int64(len(res.finalB)+len(res.finalN)))
	return res, nil
}

// elemSym is the flattened symbol of element i of array symbol sym.
func elemSym(sym string, i int) string { return sym + "[" + strconv.Itoa(i) + "]" }

func exportAST(ae *astEmitter, res *Result, sym string, v tval) {
	if v.kind == tArray {
		for i, el := range v.arr {
			exportAST(ae, res, elemSym(sym, i), el)
		}
		return
	}
	if b, ok := v.boolRef(ae); ok {
		res.finalB[sym] = ae.boolAt(b)
		return
	}
	if n, ok := v.numRef(ae); ok {
		res.finalN[sym] = ae.numAt(n)
	}
}

func exportNet(ne *netEmitter, res *NetResult, sym string, v tval) {
	if v.kind == tArray {
		for i, el := range v.arr {
			exportNet(ne, res, elemSym(sym, i), el)
		}
		return
	}
	if b, ok := v.boolRef(ne); ok {
		res.finalB[sym] = network.NodeID(b)
		return
	}
	if n, ok := v.numRef(ne); ok {
		res.finalN[sym] = network.NodeID(n)
	}
}

// tval is a symbolic value: a compile-time constant, a Boolean event, a
// c-value, an array, or the uninitialised placeholder; the zero tval is an
// unbound variable slot. Event values are emitter handles, not AST pointers,
// so the evaluator is back-end agnostic. Compile-time constants are only
// ever scalars or Booleans — literals, parameters, matrix cells, loop
// indices, and folds of those — so a tval stays small enough to return by
// value.
type tval struct {
	kind tkind
	// b is a Boolean constant; ref the handle of a Boolean event (an eref)
	// or of a c-value (an nref); s a scalar constant; arr an array's cells.
	b   bool
	ref int32
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

func boolTV(e eref) tval { return tval{kind: tEvent, ref: int32(e)} }

func numTV(n nref) tval { return tval{kind: tNum, ref: int32(n)} }

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

// boolRef lifts the value to a Boolean event handle.
func (v *tval) boolRef(em emitter) (eref, bool) {
	switch v.kind {
	case tEvent:
		return eref(v.ref), true
	case tTruth:
		return em.boolConst(v.b), true
	}
	return 0, false
}

// numRef lifts the value to a c-value handle.
func (v *tval) numRef(em emitter) (nref, bool) {
	switch v.kind {
	case tNum:
		return nref(v.ref), true
	case tScalar:
		return em.constNum(event.Num(v.s)), true
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

// labelStack tracks the per-block assignment counters of one variable
// symbol (getLabel, §3.5). counts[d] is the symbol's assignment counter in
// the block at nesting depth d; counters for blocks the symbol has not been
// assigned in yet sit at −1, which keeps labels unique across block
// boundaries.
type labelStack struct {
	counts []int
	last   string
}

func (ls *labelStack) render(sym string) string {
	parts := make([]string, len(ls.counts))
	for i, c := range ls.counts {
		parts[i] = strconv.Itoa(c)
	}
	return sym + strings.Join(parts, ".")
}

type frame struct {
	touched []string
	seen    map[string]bool
}

func (f *frame) touch(sym string) {
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	if !f.seen[sym] {
		f.seen[sym] = true
		f.touched = append(f.touched, sym)
	}
}

type translator struct {
	ext External
	em  emitter
	// vars is the environment, indexed by the program's variable slots.
	vars []tval
	// decls enables the getLabel declaration machinery; the fused back end
	// runs with it off — declarations never influence final bindings, only
	// the event-program artifact. slotOf resolves the flattened symbols it
	// tracks back to slots.
	decls  bool
	slotOf map[string]int
	labels map[string]*labelStack
	frames []*frame
}

func newTranslator(prog *lang.Program, ext External, em emitter) *translator {
	return &translator{ext: ext, em: em, vars: make([]tval, len(prog.Names))}
}

func (tr *translator) depth() int { return len(tr.frames) - 1 }

// declare emits one event declaration under the label machinery.
func (tr *translator) declare(label string, v tval) error {
	if b, ok := v.boolRef(tr.em); ok {
		tr.em.declareBool(label, b)
		return nil
	}
	if n, ok := v.numRef(tr.em); ok {
		tr.em.declareNum(label, n)
		return nil
	}
	return fmt.Errorf("translate: cannot declare %q: value has no event form", label)
}

// assignSym records an assignment of a flattened variable symbol, emitting
// the labelled declaration and returning its label. Vector-valued and
// placeholder values are tracked without declarations.
func (tr *translator) assignSym(sym string, v tval) error {
	if !tr.decls {
		return nil
	}
	ls := tr.labels[sym]
	d := tr.depth()
	if ls == nil {
		ls = &labelStack{}
		tr.labels[sym] = ls
	}
	// Align the stack to the current depth, opening silent counter slots
	// for blocks the symbol has not been touched in (reads emit the
	// block-entry copies; plain writes need no copy).
	for len(ls.counts) <= d {
		ls.counts = append(ls.counts, -1)
	}
	ls.counts = ls.counts[:d+1]
	ls.counts[d]++
	label := ls.render(sym)
	ls.last = label
	tr.frames[d].touch(sym)
	if v.kind == tNone || v.kind == tArray {
		return nil
	}
	return tr.declare(label, v)
}

// readAlign emits the block-entry copy declarations of Example 3 (lines C
// and F): the first read of a symbol inside a deeper block binds
// label.(-1) ≡ current value.
func (tr *translator) readAlign(sym string, v tval) error {
	ls := tr.labels[sym]
	if ls == nil {
		return nil // externally bound values carry no labels
	}
	d := tr.depth()
	for len(ls.counts) <= d {
		ls.counts = append(ls.counts, -1)
		label := ls.render(sym)
		ls.last = label
		tr.frames[len(ls.counts)-1].touch(sym)
		if v.kind != tNone {
			if err := tr.declare(label, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// pushFrame opens a loop block; popFrame closes it, emitting the exit-copy
// assignments that carry each touched symbol back to the parent block
// (Example 3, lines I and J). Both are no-ops on the fused path.
func (tr *translator) pushFrame() {
	if !tr.decls {
		return
	}
	tr.frames = append(tr.frames, &frame{})
}

func (tr *translator) popFrame() error {
	if !tr.decls {
		return nil
	}
	d := tr.depth()
	f := tr.frames[d]
	tr.frames = tr.frames[:d]
	for _, sym := range f.touched {
		ls := tr.labels[sym]
		if ls == nil || len(ls.counts) != d+1 {
			continue
		}
		ls.counts = ls.counts[:d]
		v, ok := tr.lookupSym(sym)
		if !ok {
			continue
		}
		if err := tr.assignSym(sym, v); err != nil {
			return err
		}
	}
	return nil
}

// lookupSym resolves a flattened element symbol like "M[1][2]" against the
// variable environment.
func (tr *translator) lookupSym(sym string) (tval, bool) {
	name := sym
	var idx []int
	if i := strings.IndexByte(sym, '['); i >= 0 {
		name = sym[:i]
		for _, part := range strings.Split(sym[i+1:len(sym)-1], "][") {
			n, err := strconv.Atoi(part)
			if err != nil {
				return tval{}, false
			}
			idx = append(idx, n)
		}
	}
	slot, ok := tr.slotOf[name]
	if !ok || tr.vars[slot].kind == tUnbound {
		return tval{}, false
	}
	v := tr.vars[slot]
	for _, ix := range idx {
		if v.kind != tArray || ix < 0 || ix >= len(v.arr) {
			return tval{}, false
		}
		v = v.arr[ix]
	}
	return v, true
}
