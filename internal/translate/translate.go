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
	tr := &translator{
		ext:    ext,
		em:     ae,
		decls:  true,
		vars:   map[string]tval{},
		labels: map[string]*labelStack{},
		frames: []*frame{{}},
	}
	if err := tr.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	res := &Result{
		Program: ae.prog,
		finalB:  map[string]event.Expr{},
		finalN:  map[string]event.NumExpr{},
	}
	for name, v := range tr.vars {
		exportAST(ae, res, name, v)
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
	tr := &translator{
		ext:  ext,
		em:   ne,
		vars: map[string]tval{},
	}
	if err := tr.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	res := &NetResult{
		finalB: map[string]network.NodeID{},
		finalN: map[string]network.NodeID{},
	}
	for name, v := range tr.vars {
		exportNet(ne, res, name, v)
	}
	span.SetInt("symbols", int64(len(res.finalB)+len(res.finalN)))
	return res, nil
}

func exportAST(ae *astEmitter, res *Result, sym string, v tval) {
	if v.arr != nil {
		for i, el := range v.arr {
			exportAST(ae, res, fmt.Sprintf("%s[%d]", sym, i), el)
		}
		return
	}
	if v.none {
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
	if v.arr != nil {
		for i, el := range v.arr {
			exportNet(ne, res, fmt.Sprintf("%s[%d]", sym, i), el)
		}
		return
	}
	if v.none {
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
// c-value, an array, or the uninitialised placeholder. Event values are
// emitter handles, not AST pointers, so the evaluator is back-end agnostic.
type tval struct {
	none    bool
	isConst bool
	hasEv   bool
	hasNum  bool
	ev      eref
	num     nref
	constV  event.Value
	arr     []tval
}

func constTV(v event.Value) tval { return tval{isConst: true, constV: v} }

func boolTV(e eref) tval { return tval{hasEv: true, ev: e} }

func numTV(n nref) tval { return tval{hasNum: true, num: n} }

func noneTV() tval { return tval{none: true} }

// boolRef lifts the value to a Boolean event handle.
func (v tval) boolRef(em emitter) (eref, bool) {
	if v.hasEv {
		return v.ev, true
	}
	if v.isConst && v.constV.Kind == event.Boolean {
		return em.boolConst(v.constV.B), true
	}
	return 0, false
}

// numRef lifts the value to a c-value handle.
func (v tval) numRef(em emitter) (nref, bool) {
	if v.hasNum {
		return v.num, true
	}
	if v.isConst && v.constV.Kind != event.Boolean {
		return em.constNum(v.constV), true
	}
	return 0, false
}

func (v tval) constInt() (int, bool) {
	if !v.isConst || v.constV.Kind != event.Scalar {
		return 0, false
	}
	i := int(v.constV.S)
	if float64(i) != v.constV.S {
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
	// decls enables the getLabel declaration machinery; the fused back end
	// runs with it off — declarations never influence final bindings, only
	// the event-program artifact.
	decls  bool
	vars   map[string]tval
	labels map[string]*labelStack
	frames []*frame
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
	if v.none || (!v.hasEv && !v.hasNum && !v.isConst) {
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
		if !v.none {
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
	v, ok := tr.vars[name]
	if !ok {
		return tval{}, false
	}
	for _, ix := range idx {
		if v.arr == nil || ix < 0 || ix >= len(v.arr) {
			return tval{}, false
		}
		v = v.arr[ix]
	}
	return v, true
}
