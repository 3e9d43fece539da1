package translate

import (
	"fmt"

	"enframe/internal/event"
	"enframe/internal/lang"
)

func (tr *translator) stmts(sts []lang.Stmt) error {
	for _, st := range sts {
		if err := tr.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (tr *translator) stmt(st lang.Stmt) error {
	switch t := st.(type) {
	case *lang.TupleAssign:
		return tr.tupleAssign(t)
	case *lang.Assign:
		return tr.assign(t)
	case *lang.For:
		from, err := tr.intExpr(t.From)
		if err != nil {
			return err
		}
		to, err := tr.intExpr(t.To)
		if err != nil {
			return err
		}
		// One frame covers every iteration of the loop block; nested
		// loops open a fresh frame per enclosing iteration (§3.5).
		tr.pushFrame()
		outer, had := tr.vars[t.Var]
		for i := from; i < to; i++ {
			tr.vars[t.Var] = constTV(event.Num(float64(i)))
			if err := tr.stmts(t.Body); err != nil {
				return err
			}
		}
		if had {
			tr.vars[t.Var] = outer
		} else {
			delete(tr.vars, t.Var)
		}
		return tr.popFrame()
	}
	return fmt.Errorf("translate: unknown statement %T", st)
}

func (tr *translator) tupleAssign(t *lang.TupleAssign) error {
	switch t.Fn {
	case "loadData":
		if len(t.Names) < 2 || len(t.Names) > 3 {
			return errAt(t.Pos, "loadData() binds (O, n) or (O, n, M)")
		}
		objs := make([]tval, len(tr.ext.Objects))
		for l, o := range tr.ext.Objects {
			// O_l ≡ Φ(o_l) ⊗ o_l (Figures 1–3).
			objs[l] = numTV(tr.em.condVal(tr.em.lineage(o.Lineage), event.Vect(o.Pos)))
		}
		arr := tval{arr: objs}
		tr.vars[t.Names[0]] = arr
		if err := tr.assignArray(t.Names[0], arr); err != nil {
			return err
		}
		tr.vars[t.Names[1]] = constTV(event.Num(float64(len(objs))))
		if len(t.Names) == 3 {
			if tr.ext.Matrix == nil {
				return errAt(t.Pos, "loadData() has no matrix binding configured")
			}
			rows := make([]tval, len(tr.ext.Matrix))
			for i, r := range tr.ext.Matrix {
				cells := make([]tval, len(r))
				for j, x := range r {
					cells[j] = constTV(event.Num(x))
				}
				rows[i] = tval{arr: cells}
			}
			tr.vars[t.Names[2]] = tval{arr: rows}
		}
		return nil
	case "loadParams":
		if len(t.Names) != len(tr.ext.Params) {
			return errAt(t.Pos, "loadParams() binds %d names but %d params were supplied",
				len(t.Names), len(tr.ext.Params))
		}
		for i, n := range t.Names {
			tr.vars[n] = constTV(event.Num(float64(tr.ext.Params[i])))
		}
		return nil
	}
	return errAt(t.Pos, "unknown external %q", t.Fn)
}

// assignArray flattens a whole-array binding into per-element labelled
// declarations; a no-op on the fused path, which emits no declarations.
func (tr *translator) assignArray(sym string, v tval) error {
	if !tr.decls {
		return nil
	}
	if v.arr == nil {
		return tr.assignSym(sym, v)
	}
	for i, el := range v.arr {
		if err := tr.assignArray(fmt.Sprintf("%s[%d]", sym, i), el); err != nil {
			return err
		}
	}
	return nil
}

func (tr *translator) assign(t *lang.Assign) error {
	// `M = init()`: M^i_{-1} ≡ Φ(o_π(i)) ⊗ o_π(i).
	if c, ok := t.Value.(*lang.Call); ok && c.Fn == "init" {
		ms := make([]tval, len(tr.ext.InitIndices))
		for i, ix := range tr.ext.InitIndices {
			o := tr.ext.Objects[ix]
			ms[i] = numTV(tr.em.condVal(tr.em.lineage(o.Lineage), event.Vect(o.Pos)))
		}
		arr := tval{arr: ms}
		tr.vars[t.Target.Name] = arr
		return tr.assignArray(t.Target.Name, arr)
	}
	val, err := tr.expr(t.Value)
	if err != nil {
		return err
	}
	if len(t.Target.Indices) == 0 {
		tr.vars[t.Target.Name] = val
		if val.arr != nil {
			return tr.assignArray(t.Target.Name, val)
		}
		return tr.assignSym(t.Target.Name, val)
	}
	cur, ok := tr.vars[t.Target.Name]
	if !ok || cur.arr == nil {
		return errAt(t.Pos, "%q is not an initialised array", t.Target.Name)
	}
	sym := t.Target.Name
	cell := &cur
	for d, ixe := range t.Target.Indices {
		ix, err := tr.intExpr(ixe)
		if err != nil {
			return err
		}
		if cell.arr == nil {
			return errAt(t.Pos, "%q has fewer than %d dimensions", t.Target.Name, d+1)
		}
		if ix < 0 || ix >= len(cell.arr) {
			return errAt(t.Pos, "index %d out of range for %q (size %d)", ix, t.Target.Name, len(cell.arr))
		}
		cell = &cell.arr[ix]
		if tr.decls {
			sym = fmt.Sprintf("%s[%d]", sym, ix)
		}
	}
	*cell = val
	tr.vars[t.Target.Name] = cur
	if val.arr != nil {
		return tr.assignArray(sym, val)
	}
	return tr.assignSym(sym, val)
}

func (tr *translator) intExpr(e lang.Expr) (int, error) {
	v, err := tr.expr(e)
	if err != nil {
		return 0, err
	}
	i, ok := v.constInt()
	if !ok {
		return 0, errAt(e.Position(), "expected a compile-time integer, found %s", lang.ExprString(e))
	}
	return i, nil
}

func (tr *translator) expr(e lang.Expr) (tval, error) {
	switch t := e.(type) {
	case *lang.IntLit:
		return constTV(event.Num(float64(t.V))), nil
	case *lang.FloatLit:
		return constTV(event.Num(t.V)), nil
	case *lang.BoolLit:
		return constTV(event.Bool(t.V)), nil
	case *lang.NoneLit:
		return noneTV(), nil
	case *lang.Name:
		v, ok := tr.vars[t.Ident]
		if !ok {
			return tval{}, errAt(t.Pos, "undefined name %q", t.Ident)
		}
		if err := tr.readAlignTree(t.Ident, v); err != nil {
			return tval{}, err
		}
		return v, nil
	case *lang.IndexExpr:
		base, err := tr.expr(t.X)
		if err != nil {
			return tval{}, err
		}
		ix, err := tr.intExpr(t.Index)
		if err != nil {
			return tval{}, err
		}
		if base.arr == nil {
			return tval{}, errAt(t.Pos, "indexing a non-array")
		}
		if ix < 0 || ix >= len(base.arr) {
			return tval{}, errAt(t.Pos, "index %d out of range (size %d)", ix, len(base.arr))
		}
		return base.arr[ix], nil
	case *lang.ArrayLit:
		size, err := tr.intExpr(t.Size)
		if err != nil {
			return tval{}, err
		}
		arr := make([]tval, size)
		for i := range arr {
			arr[i] = noneTV()
		}
		return tval{arr: arr}, nil
	case *lang.BinOp:
		return tr.binop(t)
	case *lang.Call:
		return tr.call(t)
	case *lang.ListCompr:
		return tval{}, errAt(t.Pos, "list comprehension outside reduce_*")
	}
	return tval{}, fmt.Errorf("translate: unknown expression %T", e)
}

// readAlignTree emits block-entry copies for every element of a read
// variable; a no-op on the fused path.
func (tr *translator) readAlignTree(sym string, v tval) error {
	if !tr.decls {
		return nil
	}
	if v.arr != nil {
		for i, el := range v.arr {
			if err := tr.readAlignTree(fmt.Sprintf("%s[%d]", sym, i), el); err != nil {
				return err
			}
		}
		return nil
	}
	return tr.readAlign(sym, v)
}

func (tr *translator) binop(t *lang.BinOp) (tval, error) {
	l, err := tr.expr(t.L)
	if err != nil {
		return tval{}, err
	}
	r, err := tr.expr(t.R)
	if err != nil {
		return tval{}, err
	}
	// Constant folding keeps loop bounds and indices compile-time.
	if l.isConst && r.isConst {
		switch t.Op {
		case "+":
			return constTV(event.Add(l.constV, r.constV)), nil
		case "*":
			return constTV(event.Mul(l.constV, r.constV)), nil
		default:
			op, err := cmpOp(t.Op)
			if err != nil {
				return tval{}, errAt(t.Pos, "%v", err)
			}
			return constTV(event.Bool(event.Compare(op, l.constV, r.constV))), nil
		}
	}
	ln, ok := l.numRef(tr.em)
	if !ok {
		return tval{}, errAt(t.L.Position(), "expected a numeric operand")
	}
	rn, ok := r.numRef(tr.em)
	if !ok {
		return tval{}, errAt(t.R.Position(), "expected a numeric operand")
	}
	switch t.Op {
	case "+":
		return numTV(tr.em.sum2(ln, rn)), nil
	case "*":
		return numTV(tr.em.prod2(ln, rn)), nil
	}
	op, err := cmpOp(t.Op)
	if err != nil {
		return tval{}, errAt(t.Pos, "%v", err)
	}
	return boolTV(tr.em.atom(op, ln, rn)), nil
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

func (tr *translator) numArg(e lang.Expr) (nref, error) {
	v, err := tr.expr(e)
	if err != nil {
		return 0, err
	}
	n, ok := v.numRef(tr.em)
	if !ok {
		return 0, errAt(e.Position(), "expected a numeric argument")
	}
	return n, nil
}

func (tr *translator) call(t *lang.Call) (tval, error) {
	if len(t.Fn) > 7 && t.Fn[:7] == "reduce_" {
		return tr.reduce(t)
	}
	switch t.Fn {
	case "dist":
		l, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		r, err := tr.numArg(t.Args[1])
		if err != nil {
			return tval{}, err
		}
		return numTV(tr.em.dist(l, r)), nil
	case "pow":
		b, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		exp, err := tr.intExpr(t.Args[1])
		if err != nil {
			return tval{}, err
		}
		if exp != int(int32(exp)) {
			return tval{}, errAt(t.Args[1].Position(), "pow() exponent %d out of range", exp)
		}
		return numTV(tr.em.pow(b, exp)), nil
	case "invert":
		b, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		return numTV(tr.em.inv(b)), nil
	case "scalar_mult":
		s, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		v, err := tr.numArg(t.Args[1])
		if err != nil {
			return tval{}, err
		}
		return numTV(tr.em.prod2(s, v)), nil
	case "breakTies", "breakTies1", "breakTies2":
		arg, err := tr.expr(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		return tr.breakTies(t, arg)
	case "init", "loadData", "loadParams":
		return tval{}, errAt(t.Pos, "%s() may only appear as a statement right-hand side", t.Fn)
	}
	return tval{}, errAt(t.Pos, "unknown function %q", t.Fn)
}

// breakTies translates the tie breakers of §2.2: the kept entry is the
// first true one, encoded as raw[i] ∧ ⋀_{i'<i} ¬raw[i'].
func (tr *translator) breakTies(t *lang.Call, arg tval) (tval, error) {
	boolOf := func(v tval) (eref, error) {
		b, ok := v.boolRef(tr.em)
		if !ok {
			return 0, errAt(t.Pos, "%s() expects a Boolean array", t.Fn)
		}
		return b, nil
	}
	// firstTrue shares the prefix ⋀_{i'<i} ¬raw[i'] across entries: ∧
	// flattening makes out[i] identical to the textbook n-ary conjunction,
	// while the fused back end interns each prefix exactly once.
	firstTrue := func(cells []tval) ([]tval, error) {
		out := make([]tval, len(cells))
		var notPrior eref
		for i, c := range cells {
			b, err := boolOf(c)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out[i] = boolTV(b)
				notPrior = tr.em.not(b)
				continue
			}
			out[i] = boolTV(tr.em.and2(b, notPrior))
			notPrior = tr.em.and2(notPrior, tr.em.not(b))
		}
		return out, nil
	}
	switch t.Fn {
	case "breakTies":
		if arg.arr == nil {
			return tval{}, errAt(t.Pos, "breakTies() expects an array")
		}
		cells, err := firstTrue(arg.arr)
		if err != nil {
			return tval{}, err
		}
		return tval{arr: cells}, nil
	case "breakTies1":
		if arg.arr == nil {
			return tval{}, errAt(t.Pos, "breakTies1() expects a 2-dimensional array")
		}
		out := make([]tval, len(arg.arr))
		for i, row := range arg.arr {
			if row.arr == nil {
				return tval{}, errAt(t.Pos, "breakTies1() expects a 2-dimensional array")
			}
			cells, err := firstTrue(row.arr)
			if err != nil {
				return tval{}, err
			}
			out[i] = tval{arr: cells}
		}
		return tval{arr: out}, nil
	case "breakTies2":
		if arg.arr == nil || len(arg.arr) == 0 || arg.arr[0].arr == nil {
			return tval{}, errAt(t.Pos, "breakTies2() expects a 2-dimensional array")
		}
		k := len(arg.arr)
		n := len(arg.arr[0].arr)
		out := make([]tval, k)
		for i := range out {
			out[i] = tval{arr: make([]tval, n)}
		}
		col := make([]tval, k)
		for l := 0; l < n; l++ {
			for i := 0; i < k; i++ {
				if arg.arr[i].arr == nil || len(arg.arr[i].arr) != n {
					return tval{}, errAt(t.Pos, "breakTies2() expects a rectangular array")
				}
				col[i] = arg.arr[i].arr[l]
			}
			cells, err := firstTrue(col)
			if err != nil {
				return tval{}, err
			}
			for i := 0; i < k; i++ {
				out[i].arr[l] = cells[i]
			}
		}
		return tval{arr: out}, nil
	}
	return tval{}, errAt(t.Pos, "unknown tie breaker %q", t.Fn)
}

// reduce translates reduce_*(list comprehension) per §3.5: reduce_sum to
// Σ cond ∧ elem, reduce_or to ∨ cond ∧ elem, reduce_count to Σ cond ⊗ 1,
// reduce_and to ⋀ (¬cond ∨ elem) — the filtered-out elements contribute the
// neutral element — and reduce_mult to Π (cond ∧ elem + ¬cond ⊗ 1).
func (tr *translator) reduce(t *lang.Call) (tval, error) {
	lc := t.Args[0].(*lang.ListCompr)
	from, err := tr.intExpr(lc.From)
	if err != nil {
		return tval{}, err
	}
	to, err := tr.intExpr(lc.To)
	if err != nil {
		return tval{}, err
	}
	outer, had := tr.vars[lc.Var]
	defer func() {
		if had {
			tr.vars[lc.Var] = outer
		} else {
			delete(tr.vars, lc.Var)
		}
	}()

	var bools []eref
	var nums []nref
	for i := from; i < to; i++ {
		tr.vars[lc.Var] = constTV(event.Num(float64(i)))
		cond := tr.em.boolConst(true)
		if lc.Cond != nil {
			cv, err := tr.expr(lc.Cond)
			if err != nil {
				return tval{}, err
			}
			c, ok := cv.boolRef(tr.em)
			if !ok {
				return tval{}, errAt(lc.Pos, "filter condition must be Boolean")
			}
			cond = c
		}
		if t.Fn == "reduce_count" {
			nums = append(nums, tr.em.condVal(cond, event.Num(1)))
			continue
		}
		ev, err := tr.expr(lc.Elem)
		if err != nil {
			return tval{}, err
		}
		switch t.Fn {
		case "reduce_and":
			b, ok := ev.boolRef(tr.em)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_and over non-Boolean elements")
			}
			bools = append(bools, tr.em.or2(tr.em.not(cond), b))
		case "reduce_or":
			b, ok := ev.boolRef(tr.em)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_or over non-Boolean elements")
			}
			bools = append(bools, tr.em.and2(cond, b))
		case "reduce_sum":
			n, ok := ev.numRef(tr.em)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_sum over non-numeric elements")
			}
			nums = append(nums, tr.em.guardNum(cond, n))
		case "reduce_mult":
			n, ok := ev.numRef(tr.em)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_mult over non-numeric elements")
			}
			if lc.Cond == nil {
				nums = append(nums, n)
			} else {
				nums = append(nums, tr.em.sum2(
					tr.em.guardNum(cond, n),
					tr.em.condVal(tr.em.not(cond), event.Num(1)),
				))
			}
		default:
			return tval{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
		}
	}
	switch t.Fn {
	case "reduce_and":
		return boolTV(tr.em.and(bools)), nil
	case "reduce_or":
		return boolTV(tr.em.or(bools)), nil
	case "reduce_sum", "reduce_count":
		if len(nums) == 0 {
			// Σ of an empty range is the undefined value.
			return numTV(tr.em.condVal(tr.em.boolConst(false), event.U)), nil
		}
		return numTV(tr.em.sum(nums)), nil
	case "reduce_mult":
		if len(nums) == 0 {
			return constTV(event.Num(1)), nil
		}
		return numTV(tr.em.prod(nums)), nil
	}
	return tval{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
}

func errAt(pos lang.Pos, format string, args ...any) error {
	return fmt.Errorf("translate: %s: %s", pos, fmt.Sprintf(format, args...))
}
