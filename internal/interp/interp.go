// Package interp executes user programs (internal/lang) in one possible
// world, following the deterministic semantics of §2 extended with the
// undefined value u of §3.2 — the per-world image of the event semantics:
// distances to undefined operands are undefined, comparisons involving u
// hold, empty reductions of sums and counts are undefined. The differential
// tests for the generic translation, and the tests that hold the naïve
// baseline (internal/cluster) to the translated semantics, build on this
// interpreter.
package interp

import (
	"fmt"

	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/vec"
)

// External supplies the implementations of the abstract primitives
// loadData(), loadParams(), and init() (§2 "Input data").
type External struct {
	// Objects backs loadData(): `(O, n) = loadData()` binds O to the
	// object array and n to its length. Absent objects (per Present) are
	// bound to the undefined value, matching O_l ≡ Φ(o_l) ⊗ o_l.
	Objects []lineage.Object
	// Present marks which objects exist in this world; nil means all.
	Present []bool
	// Matrix backs a third loadData() binding, e.g. `(O, n, M) =
	// loadData()` for Markov clustering: an n × n matrix of edge weights,
	// n = len(Objects). Cell (i, j ≠ i) is its weight when objects i and j
	// are both present and 0 otherwise; the diagonal is certain.
	Matrix [][]float64
	// Params backs loadParams() in binding order, e.g. `(k, iter)`.
	Params []int
	// InitIndices backs init(): the bound variable becomes the array of
	// initial medoids/centroids O[π(0)], …, O[π(k-1)] (undefined for
	// absent objects).
	InitIndices []int
	// Metric is the distance measure of dist(); nil means Euclidean.
	Metric vec.Distance
}

// Value is a runtime value: an extended scalar/vector/Boolean value, an
// array, or the uninitialised placeholder None.
type Value struct {
	None bool
	Arr  []Value
	V    event.Value
}

// IsArr reports whether the value is an array.
func (v Value) IsArr() bool { return v.Arr != nil }

func scalarVal(v event.Value) Value { return Value{V: v} }

func noneVal() Value { return Value{None: true} }

// World is the final variable environment of one program run.
type World struct {
	vars map[string]Value
	ext  External
}

// Var returns the final value of a program variable.
func (w *World) Var(name string) (Value, bool) {
	v, ok := w.vars[name]
	return v, ok
}

// BoolMatrix extracts a 2-dimensional Boolean array variable such as InCl
// or Centre.
func (w *World) BoolMatrix(name string) ([][]bool, error) {
	v, ok := w.vars[name]
	if !ok {
		return nil, fmt.Errorf("interp: no variable %q", name)
	}
	if !v.IsArr() {
		return nil, fmt.Errorf("interp: %q is not an array", name)
	}
	out := make([][]bool, len(v.Arr))
	for i, row := range v.Arr {
		if !row.IsArr() {
			return nil, fmt.Errorf("interp: %q[%d] is not an array", name, i)
		}
		out[i] = make([]bool, len(row.Arr))
		for j, c := range row.Arr {
			if c.None {
				return nil, fmt.Errorf("interp: %q[%d][%d] is uninitialised", name, i, j)
			}
			if c.V.Kind != event.Boolean {
				return nil, fmt.Errorf("interp: %q[%d][%d] is %v, not Boolean", name, i, j, c.V.Kind)
			}
			out[i][j] = c.V.B
		}
	}
	return out, nil
}

// Run validates and executes a program in one world.
func Run(prog *lang.Program, ext External) (*World, error) {
	if err := lang.Validate(prog); err != nil {
		return nil, err
	}
	if ext.Metric == nil {
		ext.Metric = vec.Euclidean
	}
	in := &interp{ext: ext, vars: map[string]Value{}}
	if err := in.stmts(prog.Stmts); err != nil {
		return nil, err
	}
	return &World{vars: in.vars, ext: ext}, nil
}

type interp struct {
	ext  External
	vars map[string]Value
}

func (in *interp) present(l int) bool {
	return in.ext.Present == nil || in.ext.Present[l]
}

func (in *interp) objectValue(l int) event.Value {
	if in.present(l) {
		return event.Vect(in.ext.Objects[l].Pos)
	}
	return event.U
}

func (in *interp) stmts(sts []lang.Stmt) error {
	for _, st := range sts {
		if err := in.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) stmt(st lang.Stmt) error {
	switch t := st.(type) {
	case *lang.TupleAssign:
		return in.tupleAssign(t)
	case *lang.Assign:
		return in.assign(t)
	case *lang.For:
		from, err := in.intExpr(t.From)
		if err != nil {
			return err
		}
		to, err := in.intExpr(t.To)
		if err != nil {
			return err
		}
		outer, had := in.vars[t.Var]
		for i := from; i < to; i++ {
			in.vars[t.Var] = scalarVal(event.Num(float64(i)))
			if err := in.stmts(t.Body); err != nil {
				return err
			}
		}
		if had {
			in.vars[t.Var] = outer
		} else {
			delete(in.vars, t.Var)
		}
		return nil
	}
	return fmt.Errorf("interp: unknown statement %T", st)
}

func (in *interp) tupleAssign(t *lang.TupleAssign) error {
	switch t.Fn {
	case "loadData":
		if len(t.Names) < 2 || len(t.Names) > 3 {
			return errAt(t.Pos, "loadData() binds (O, n) or (O, n, M)")
		}
		objs := make([]Value, len(in.ext.Objects))
		for l := range objs {
			objs[l] = scalarVal(in.objectValue(l))
		}
		in.vars[t.Names[0]] = Value{Arr: objs}
		in.vars[t.Names[1]] = scalarVal(event.Num(float64(len(objs))))
		if len(t.Names) == 3 {
			if err := checkMatrix(t.Pos, in.ext.Matrix, len(objs)); err != nil {
				return err
			}
			rows := make([]Value, len(in.ext.Matrix))
			for i, r := range in.ext.Matrix {
				cells := make([]Value, len(r))
				for j, x := range r {
					// An edge exists when both of its objects do; the
					// diagonal is certain.
					if i != j && !(in.present(i) && in.present(j)) {
						x = 0
					}
					cells[j] = scalarVal(event.Num(x))
				}
				rows[i] = Value{Arr: cells}
			}
			in.vars[t.Names[2]] = Value{Arr: rows}
		}
		return nil
	case "loadParams":
		if len(t.Names) != len(in.ext.Params) {
			return errAt(t.Pos, "loadParams() binds %d names but %d params were supplied",
				len(t.Names), len(in.ext.Params))
		}
		for i, n := range t.Names {
			in.vars[n] = scalarVal(event.Num(float64(in.ext.Params[i])))
		}
		return nil
	}
	return errAt(t.Pos, "unknown external %q", t.Fn)
}

func (in *interp) assign(t *lang.Assign) error {
	// `M = init()`.
	if c, ok := t.Value.(*lang.Call); ok && c.Fn == "init" {
		ms := make([]Value, len(in.ext.InitIndices))
		for i, ix := range in.ext.InitIndices {
			ms[i] = scalarVal(in.objectValue(ix))
		}
		in.vars[t.Target.Name] = Value{Arr: ms}
		return nil
	}
	val, err := in.expr(t.Value)
	if err != nil {
		return err
	}
	if len(t.Target.Indices) == 0 {
		in.vars[t.Target.Name] = val
		return nil
	}
	// Array element assignment: walk to the cell.
	cur, ok := in.vars[t.Target.Name]
	if !ok || !cur.IsArr() {
		return errAt(t.Pos, "%q is not an initialised array", t.Target.Name)
	}
	cell := &cur
	for d, ixe := range t.Target.Indices {
		ix, err := in.intExpr(ixe)
		if err != nil {
			return err
		}
		if !cell.IsArr() {
			return errAt(t.Pos, "%q has fewer than %d dimensions", t.Target.Name, d+1)
		}
		if ix < 0 || ix >= len(cell.Arr) {
			return errAt(t.Pos, "index %d out of range for %q (size %d)", ix, t.Target.Name, len(cell.Arr))
		}
		cell = &cell.Arr[ix]
	}
	*cell = val
	return nil
}

func (in *interp) intExpr(e lang.Expr) (int, error) {
	v, err := in.expr(e)
	if err != nil {
		return 0, err
	}
	if v.IsArr() || v.None || v.V.Kind != event.Scalar {
		return 0, errAt(e.Position(), "expected an integer, found %s", lang.ExprString(e))
	}
	i := int(v.V.S)
	if float64(i) != v.V.S {
		return 0, errAt(e.Position(), "expected an integer, found %g", v.V.S)
	}
	return i, nil
}

func (in *interp) expr(e lang.Expr) (Value, error) {
	switch t := e.(type) {
	case *lang.IntLit:
		return scalarVal(event.Num(float64(t.V))), nil
	case *lang.FloatLit:
		return scalarVal(event.Num(t.V)), nil
	case *lang.BoolLit:
		return scalarVal(event.Bool(t.V)), nil
	case *lang.NoneLit:
		return noneVal(), nil
	case *lang.Name:
		v, ok := in.vars[t.Ident]
		if !ok {
			return Value{}, errAt(t.Pos, "undefined name %q", t.Ident)
		}
		return v, nil
	case *lang.IndexExpr:
		base, err := in.expr(t.X)
		if err != nil {
			return Value{}, err
		}
		ix, err := in.intExpr(t.Index)
		if err != nil {
			return Value{}, err
		}
		if !base.IsArr() {
			return Value{}, errAt(t.Pos, "indexing a non-array")
		}
		if ix < 0 || ix >= len(base.Arr) {
			return Value{}, errAt(t.Pos, "index %d out of range (size %d)", ix, len(base.Arr))
		}
		return base.Arr[ix], nil
	case *lang.ArrayLit:
		size, err := in.intExpr(t.Size)
		if err != nil {
			return Value{}, err
		}
		arr := make([]Value, size)
		for i := range arr {
			arr[i] = noneVal()
		}
		return Value{Arr: arr}, nil
	case *lang.BinOp:
		return in.binop(t)
	case *lang.Call:
		return in.call(t)
	case *lang.ListCompr:
		return Value{}, errAt(t.Pos, "list comprehension outside reduce_*")
	}
	return Value{}, fmt.Errorf("interp: unknown expression %T", e)
}

func (in *interp) binop(t *lang.BinOp) (Value, error) {
	l, err := in.scalarOrVec(t.L)
	if err != nil {
		return Value{}, err
	}
	r, err := in.scalarOrVec(t.R)
	if err != nil {
		return Value{}, err
	}
	switch t.Op {
	case "+":
		return scalarVal(event.Add(l, r)), nil
	case "*":
		return scalarVal(event.Mul(l, r)), nil
	}
	op, err := cmpOp(t.Op)
	if err != nil {
		return Value{}, errAt(t.Pos, "%v", err)
	}
	return scalarVal(event.Bool(event.Compare(op, l, r))), nil
}

func cmpOp(op string) (event.CmpOp, error) {
	switch op {
	case "<=":
		return event.LE, nil
	case ">=":
		return event.GE, nil
	case "<":
		return event.LT, nil
	case ">":
		return event.GT, nil
	case "==":
		return event.EQ, nil
	}
	return 0, fmt.Errorf("unknown operator %q", op)
}

// scalarOrVec evaluates an expression to an extended value (never an array
// or None).
func (in *interp) scalarOrVec(e lang.Expr) (event.Value, error) {
	v, err := in.expr(e)
	if err != nil {
		return event.Value{}, err
	}
	if v.None {
		return event.Value{}, errAt(e.Position(), "use of uninitialised value")
	}
	if v.IsArr() {
		return event.Value{}, errAt(e.Position(), "expected a scalar or vector, found an array")
	}
	return v.V, nil
}

func (in *interp) call(t *lang.Call) (Value, error) {
	if len(t.Fn) > 7 && t.Fn[:7] == "reduce_" {
		return in.reduce(t)
	}
	switch t.Fn {
	case "dist":
		l, err := in.scalarOrVec(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		r, err := in.scalarOrVec(t.Args[1])
		if err != nil {
			return Value{}, err
		}
		for _, v := range []event.Value{l, r} {
			if v.Kind != event.Vector && v.Kind != event.Undef {
				return Value{}, errAt(t.Pos, "dist() expects feature vectors, found %v", v.Kind)
			}
		}
		return scalarVal(event.DistVal(in.ext.Metric, l, r)), nil
	case "pow":
		b, err := in.scalarOrVec(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		exp, err := in.intExpr(t.Args[1])
		if err != nil {
			return Value{}, err
		}
		return scalarVal(event.PowVal(b, exp)), nil
	case "invert":
		b, err := in.scalarOrVec(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		return scalarVal(event.Inv(b)), nil
	case "scalar_mult":
		s, err := in.scalarOrVec(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		v, err := in.scalarOrVec(t.Args[1])
		if err != nil {
			return Value{}, err
		}
		return scalarVal(event.Mul(s, v)), nil
	case "breakTies", "breakTies1", "breakTies2":
		arg, err := in.expr(t.Args[0])
		if err != nil {
			return Value{}, err
		}
		return in.breakTies(t, arg)
	case "init", "loadData", "loadParams":
		return Value{}, errAt(t.Pos, "%s() may only appear as a statement right-hand side", t.Fn)
	}
	return Value{}, errAt(t.Pos, "unknown function %q", t.Fn)
}

// breakTies implements the three tie-breaking variants of §2.2 on Boolean
// arrays, returning a fresh array.
func (in *interp) breakTies(t *lang.Call, arg Value) (Value, error) {
	if !arg.IsArr() {
		return Value{}, errAt(t.Pos, "%s() expects an array", t.Fn)
	}
	boolOf := func(v Value) (bool, error) {
		if v.None || v.IsArr() || v.V.Kind != event.Boolean {
			return false, errAt(t.Pos, "%s() expects a Boolean array", t.Fn)
		}
		return v.V.B, nil
	}
	switch t.Fn {
	case "breakTies":
		out := make([]Value, len(arg.Arr))
		seen := false
		for i, c := range arg.Arr {
			b, err := boolOf(c)
			if err != nil {
				return Value{}, err
			}
			out[i] = scalarVal(event.Bool(b && !seen))
			seen = seen || b
		}
		return Value{Arr: out}, nil
	case "breakTies1":
		// Fix the first dimension; break ties along the second.
		out := make([]Value, len(arg.Arr))
		for i, row := range arg.Arr {
			if !row.IsArr() {
				return Value{}, errAt(t.Pos, "breakTies1() expects a 2-dimensional array")
			}
			cells := make([]Value, len(row.Arr))
			seen := false
			for l, c := range row.Arr {
				b, err := boolOf(c)
				if err != nil {
					return Value{}, err
				}
				cells[l] = scalarVal(event.Bool(b && !seen))
				seen = seen || b
			}
			out[i] = Value{Arr: cells}
		}
		return Value{Arr: out}, nil
	case "breakTies2":
		// Fix the second dimension; break ties along the first.
		k := len(arg.Arr)
		out := make([]Value, k)
		var n int
		for i, row := range arg.Arr {
			if !row.IsArr() {
				return Value{}, errAt(t.Pos, "breakTies2() expects a 2-dimensional array")
			}
			if i == 0 {
				n = len(row.Arr)
			} else if len(row.Arr) != n {
				return Value{}, errAt(t.Pos, "breakTies2() expects a rectangular array")
			}
			out[i] = Value{Arr: make([]Value, n)}
		}
		for l := 0; l < n; l++ {
			seen := false
			for i := 0; i < k; i++ {
				b, err := boolOf(arg.Arr[i].Arr[l])
				if err != nil {
					return Value{}, err
				}
				out[i].Arr[l] = scalarVal(event.Bool(b && !seen))
				seen = seen || b
			}
		}
		return Value{Arr: out}, nil
	}
	return Value{}, errAt(t.Pos, "unknown tie breaker %q", t.Fn)
}

// reduce evaluates reduce_*(list comprehension) following the translation
// semantics of §3.5: excluded elements contribute the neutral element of
// the reduction (u for sums and counts — so empty reductions are undefined —
// true for conjunctions, false for disjunctions, 1 for products).
func (in *interp) reduce(t *lang.Call) (Value, error) {
	lc := t.Args[0].(*lang.ListCompr)
	from, err := in.intExpr(lc.From)
	if err != nil {
		return Value{}, err
	}
	to, err := in.intExpr(lc.To)
	if err != nil {
		return Value{}, err
	}
	outer, had := in.vars[lc.Var]
	defer func() {
		if had {
			in.vars[lc.Var] = outer
		} else {
			delete(in.vars, lc.Var)
		}
	}()

	acc := event.U // sum/count accumulator
	accB := t.Fn == "reduce_and"
	accM := event.Num(1)
	for i := from; i < to; i++ {
		in.vars[lc.Var] = scalarVal(event.Num(float64(i)))
		if lc.Cond != nil {
			cond, err := in.scalarOrVec(lc.Cond)
			if err != nil {
				return Value{}, err
			}
			if cond.Kind != event.Boolean {
				return Value{}, errAt(lc.Pos, "filter condition must be Boolean")
			}
			if !cond.B {
				continue
			}
		}
		switch t.Fn {
		case "reduce_count":
			acc = event.Add(acc, event.Num(1))
			continue
		}
		el, err := in.scalarOrVec(lc.Elem)
		if err != nil {
			return Value{}, err
		}
		switch t.Fn {
		case "reduce_and":
			if el.Kind != event.Boolean {
				return Value{}, errAt(lc.Pos, "reduce_and over non-Boolean elements")
			}
			accB = accB && el.B
		case "reduce_or":
			if el.Kind != event.Boolean {
				return Value{}, errAt(lc.Pos, "reduce_or over non-Boolean elements")
			}
			accB = accB || el.B
		case "reduce_sum":
			acc = event.Add(acc, el)
		case "reduce_mult":
			accM = event.Mul(accM, el)
		default:
			return Value{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
		}
	}
	switch t.Fn {
	case "reduce_and", "reduce_or":
		return scalarVal(event.Bool(accB)), nil
	case "reduce_sum", "reduce_count":
		return scalarVal(acc), nil
	case "reduce_mult":
		return scalarVal(accM), nil
	}
	return Value{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
}

// checkMatrix requires the matrix binding of loadData() to be n × n, one
// row and one column per object.
func checkMatrix(pos lang.Pos, m [][]float64, n int) error {
	ok := m != nil && len(m) == n
	for _, r := range m {
		ok = ok && len(r) == n
	}
	if !ok {
		return errAt(pos, "loadData() needs a %d × %d matrix binding", n, n)
	}
	return nil
}

func errAt(pos lang.Pos, format string, args ...any) error {
	return fmt.Errorf("interp: %s: %s", pos, fmt.Sprintf(format, args...))
}
