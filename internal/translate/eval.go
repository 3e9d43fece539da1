package translate

import (
	"fmt"

	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/network"
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
		outer := tr.vars[t.Slot]
		for i := from; i < to; i++ {
			tr.vars[t.Slot] = scalarTV(float64(i))
			if err := tr.stmts(t.Body); err != nil {
				return err
			}
		}
		tr.vars[t.Slot] = outer
		return nil
	}
	return fmt.Errorf("translate: unknown statement %T", st)
}

func (tr *translator) tupleAssign(t *lang.TupleAssign) error {
	switch t.Fn {
	case "loadData":
		if len(t.Names) < 2 || len(t.Names) > 3 {
			return errAt(t.Pos, "loadData() binds (O, n) or (O, n, M)")
		}
		n := len(tr.ext.Objects)
		objs := make([]tval, n)
		phi := make([]network.NodeID, n)
		for l, o := range tr.ext.Objects {
			// O_l ≡ Φ(o_l) ⊗ o_l (Figures 1–3).
			phi[l] = tr.b.AddExpr(o.Lineage)
			objs[l] = numTV(tr.b.CondVal(phi[l], event.Vect(o.Pos)))
		}
		tr.vars[t.Slots[0]] = arrTV(objs)
		tr.vars[t.Slots[1]] = scalarTV(float64(n))
		if len(t.Names) == 3 {
			if err := checkMatrix(t.Pos, tr.ext.Matrix, n); err != nil {
				return err
			}
			top := tr.b.Bool(true)
			rows := make([]tval, n)
			for i, r := range tr.ext.Matrix {
				cells := make([]tval, n)
				for j, w := range r {
					// M_ij ≡ (Φ(o_i) ∧ Φ(o_j)) ⊗ w_ij, and 0 when the edge
					// is absent; the diagonal is certain.
					g := top
					if i != j {
						g = tr.b.And(phi[i], phi[j])
					}
					if g == top {
						cells[j] = scalarTV(w)
						continue
					}
					cells[j] = numTV(tr.b.Sum(
						tr.b.CondVal(g, event.Num(w)),
						tr.b.CondVal(tr.b.Not(g), event.Num(0)),
					))
				}
				rows[i] = arrTV(cells)
			}
			tr.vars[t.Slots[2]] = arrTV(rows)
		}
		return nil
	case "loadParams":
		if len(t.Names) != len(tr.ext.Params) {
			return errAt(t.Pos, "loadParams() binds %d names but %d params were supplied",
				len(t.Names), len(tr.ext.Params))
		}
		for i, slot := range t.Slots {
			tr.vars[slot] = scalarTV(float64(tr.ext.Params[i]))
		}
		return nil
	}
	return errAt(t.Pos, "unknown external %q", t.Fn)
}

func (tr *translator) assign(t *lang.Assign) error {
	// `M = init()`: M^i_{-1} ≡ Φ(o_π(i)) ⊗ o_π(i).
	if c, ok := t.Value.(*lang.Call); ok && c.Fn == "init" {
		ms := make([]tval, len(tr.ext.InitIndices))
		for i, ix := range tr.ext.InitIndices {
			o := tr.ext.Objects[ix]
			ms[i] = numTV(tr.b.CondVal(tr.b.AddExpr(o.Lineage), event.Vect(o.Pos)))
		}
		tr.vars[t.Target.Slot] = arrTV(ms)
		return nil
	}
	val, err := tr.expr(t.Value)
	if err != nil {
		return err
	}
	if len(t.Target.Indices) == 0 {
		tr.vars[t.Target.Slot] = val
		return nil
	}
	cur := tr.vars[t.Target.Slot]
	if cur.kind != tArray {
		return errAt(t.Pos, "%q is not an initialised array", t.Target.Name)
	}
	cell := &cur
	for d, ixe := range t.Target.Indices {
		ix, err := tr.intExpr(ixe)
		if err != nil {
			return err
		}
		if cell.kind != tArray {
			return errAt(t.Pos, "%q has fewer than %d dimensions", t.Target.Name, d+1)
		}
		if ix < 0 || ix >= len(cell.arr) {
			return errAt(t.Pos, "index %d out of range for %q (size %d)", ix, t.Target.Name, len(cell.arr))
		}
		cell = &cell.arr[ix]
	}
	*cell = val
	tr.vars[t.Target.Slot] = cur
	return nil
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
		return scalarTV(float64(t.V)), nil
	case *lang.FloatLit:
		return scalarTV(t.V), nil
	case *lang.BoolLit:
		return tval{kind: tTruth, b: t.V}, nil
	case *lang.NoneLit:
		return noneTV(), nil
	case *lang.Name:
		v := tr.vars[t.Slot]
		if v.kind == tUnbound {
			return tval{}, errAt(t.Pos, "undefined name %q", t.Ident)
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
		if base.kind != tArray {
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
		return arrTV(arr), nil
	case *lang.BinOp:
		return tr.binop(t)
	case *lang.Call:
		return tr.call(t)
	case *lang.ListCompr:
		return tval{}, errAt(t.Pos, "list comprehension outside reduce_*")
	}
	return tval{}, fmt.Errorf("translate: unknown expression %T", e)
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
	if l.isConst() && r.isConst() {
		switch t.Op {
		case "+":
			return constTV(event.Add(l.constV(), r.constV())), nil
		case "*":
			return constTV(event.Mul(l.constV(), r.constV())), nil
		default:
			op, err := cmpOp(t.Op)
			if err != nil {
				return tval{}, errAt(t.Pos, "%v", err)
			}
			return constTV(event.Bool(event.Compare(op, l.constV(), r.constV()))), nil
		}
	}
	ln, ok := l.numRef(tr.b)
	if !ok {
		return tval{}, errAt(t.L.Position(), "expected a numeric operand")
	}
	rn, ok := r.numRef(tr.b)
	if !ok {
		return tval{}, errAt(t.R.Position(), "expected a numeric operand")
	}
	switch t.Op {
	case "+":
		return numTV(tr.b.Sum(ln, rn)), nil
	case "*":
		return numTV(tr.b.Prod(ln, rn)), nil
	}
	op, err := cmpOp(t.Op)
	if err != nil {
		return tval{}, errAt(t.Pos, "%v", err)
	}
	return boolTV(tr.b.Cmp(op, ln, rn)), nil
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

func (tr *translator) numArg(e lang.Expr) (network.NodeID, error) {
	v, err := tr.expr(e)
	if err != nil {
		return 0, err
	}
	n, ok := v.numRef(tr.b)
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
		return numTV(tr.b.Dist(l, r)), nil
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
		return numTV(tr.b.Pow(b, exp)), nil
	case "invert":
		b, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		return numTV(tr.b.Inv(b)), nil
	case "scalar_mult":
		s, err := tr.numArg(t.Args[0])
		if err != nil {
			return tval{}, err
		}
		v, err := tr.numArg(t.Args[1])
		if err != nil {
			return tval{}, err
		}
		return numTV(tr.b.Prod(s, v)), nil
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
	boolOf := func(v tval) (network.NodeID, error) {
		b, ok := v.boolRef(tr.b)
		if !ok {
			return 0, errAt(t.Pos, "%s() expects a Boolean array", t.Fn)
		}
		return b, nil
	}
	// firstTrue shares the prefix ⋀_{i'<i} ¬raw[i'] across entries: ∧
	// flattening makes out[i] identical to the textbook n-ary conjunction,
	// and the builder interns each prefix exactly once.
	firstTrue := func(cells []tval) ([]tval, error) {
		out := make([]tval, len(cells))
		var notPrior network.NodeID
		for i, c := range cells {
			b, err := boolOf(c)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out[i] = boolTV(b)
				notPrior = tr.b.Not(b)
				continue
			}
			out[i] = boolTV(tr.b.And(b, notPrior))
			notPrior = tr.b.And(notPrior, tr.b.Not(b))
		}
		return out, nil
	}
	switch t.Fn {
	case "breakTies":
		if arg.kind != tArray {
			return tval{}, errAt(t.Pos, "breakTies() expects an array")
		}
		cells, err := firstTrue(arg.arr)
		if err != nil {
			return tval{}, err
		}
		return arrTV(cells), nil
	case "breakTies1":
		if arg.kind != tArray {
			return tval{}, errAt(t.Pos, "breakTies1() expects a 2-dimensional array")
		}
		out := make([]tval, len(arg.arr))
		for i, row := range arg.arr {
			if row.kind != tArray {
				return tval{}, errAt(t.Pos, "breakTies1() expects a 2-dimensional array")
			}
			cells, err := firstTrue(row.arr)
			if err != nil {
				return tval{}, err
			}
			out[i] = arrTV(cells)
		}
		return arrTV(out), nil
	case "breakTies2":
		if arg.kind != tArray || len(arg.arr) == 0 || arg.arr[0].kind != tArray {
			return tval{}, errAt(t.Pos, "breakTies2() expects a 2-dimensional array")
		}
		k := len(arg.arr)
		n := len(arg.arr[0].arr)
		out := make([]tval, k)
		for i := range out {
			out[i] = arrTV(make([]tval, n))
		}
		col := make([]tval, k)
		for l := 0; l < n; l++ {
			for i := 0; i < k; i++ {
				if arg.arr[i].kind != tArray || len(arg.arr[i].arr) != n {
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
		return arrTV(out), nil
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
	outer := tr.vars[lc.Slot]
	defer func() { tr.vars[lc.Slot] = outer }()

	var bools []network.NodeID
	var nums []network.NodeID
	for i := from; i < to; i++ {
		tr.vars[lc.Slot] = scalarTV(float64(i))
		cond := tr.b.Bool(true)
		if lc.Cond != nil {
			cv, err := tr.expr(lc.Cond)
			if err != nil {
				return tval{}, err
			}
			c, ok := cv.boolRef(tr.b)
			if !ok {
				return tval{}, errAt(lc.Pos, "filter condition must be Boolean")
			}
			cond = c
		}
		if t.Fn == "reduce_count" {
			nums = append(nums, tr.b.CondVal(cond, event.Num(1)))
			continue
		}
		ev, err := tr.expr(lc.Elem)
		if err != nil {
			return tval{}, err
		}
		switch t.Fn {
		case "reduce_and":
			b, ok := ev.boolRef(tr.b)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_and over non-Boolean elements")
			}
			bools = append(bools, tr.b.Or(tr.b.Not(cond), b))
		case "reduce_or":
			b, ok := ev.boolRef(tr.b)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_or over non-Boolean elements")
			}
			bools = append(bools, tr.b.And(cond, b))
		case "reduce_sum":
			n, ok := ev.numRef(tr.b)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_sum over non-numeric elements")
			}
			nums = append(nums, tr.b.Guard(cond, n))
		case "reduce_mult":
			n, ok := ev.numRef(tr.b)
			if !ok {
				return tval{}, errAt(lc.Pos, "reduce_mult over non-numeric elements")
			}
			if lc.Cond == nil {
				nums = append(nums, n)
			} else {
				nums = append(nums, tr.b.Sum(
					tr.b.Guard(cond, n),
					tr.b.CondVal(tr.b.Not(cond), event.Num(1)),
				))
			}
		default:
			return tval{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
		}
	}
	switch t.Fn {
	case "reduce_and":
		return boolTV(tr.b.And(bools...)), nil
	case "reduce_or":
		return boolTV(tr.b.Or(bools...)), nil
	case "reduce_sum", "reduce_count":
		if len(nums) == 0 {
			// Σ of an empty range is the undefined value.
			return numTV(tr.b.CondVal(tr.b.Bool(false), event.U)), nil
		}
		return numTV(tr.b.Sum(nums...)), nil
	case "reduce_mult":
		if len(nums) == 0 {
			return scalarTV(1), nil
		}
		return numTV(tr.b.Prod(nums...)), nil
	}
	return tval{}, errAt(t.Pos, "unknown reduction %q", t.Fn)
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
	return fmt.Errorf("translate: %s: %s", pos, fmt.Sprintf(format, args...))
}
