package lang

import "fmt"

// Validate enforces the static constraints of §2.2 on a parsed program:
// bounded-range loops over constant expressions, list comprehension only as
// reduce_* arguments, externals only as statement right-hand sides, builtins
// called with correct arity, and no use of undefined names.
func Validate(prog *Program) error {
	v := &validator{defined: make([]bool, len(prog.Names))}
	return v.stmts(prog.Stmts)
}

// validator tracks which slots are bound at the current point.
type validator struct {
	defined []bool
}

func (v *validator) stmts(sts []Stmt) error {
	for _, st := range sts {
		if err := v.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) stmt(st Stmt) error {
	switch t := st.(type) {
	case *TupleAssign:
		if t.Fn != "loadData" && t.Fn != "loadParams" {
			return errf(t.Pos, "tuple assignment requires loadData() or loadParams(), found %q", t.Fn)
		}
		for _, s := range t.Slots {
			v.defined[s] = true
		}
		return nil
	case *Assign:
		// `M = init()` binds externally.
		if c, ok := t.Value.(*Call); ok && c.Fn == "init" {
			if len(t.Target.Indices) != 0 {
				return errf(t.Pos, "init() must be assigned to a plain name")
			}
			v.defined[t.Target.Slot] = true
			return nil
		}
		if err := v.expr(t.Value, false); err != nil {
			return err
		}
		for _, ix := range t.Target.Indices {
			if err := v.expr(ix, false); err != nil {
				return err
			}
		}
		if len(t.Target.Indices) > 0 && !v.defined[t.Target.Slot] {
			return errf(t.Pos, "array %q must be initialised before element assignment", t.Target.Name)
		}
		v.defined[t.Target.Slot] = true
		return nil
	case *For:
		if err := v.rangeBound(t.From); err != nil {
			return err
		}
		if err := v.rangeBound(t.To); err != nil {
			return err
		}
		outer := v.defined[t.Slot]
		v.defined[t.Slot] = true
		if err := v.stmts(t.Body); err != nil {
			return err
		}
		v.defined[t.Slot] = outer
		return nil
	}
	return fmt.Errorf("lang: unknown statement type %T", st)
}

// rangeBound admits the compile-time integer expressions allowed as range
// parameters: integer literals and (immutable) named integers, combined
// with + and *.
func (v *validator) rangeBound(e Expr) error {
	switch t := e.(type) {
	case *IntLit:
		return nil
	case *Name:
		if !v.defined[t.Slot] {
			return errf(t.Pos, "undefined name %q in range bound", t.Ident)
		}
		return nil
	case *BinOp:
		if t.Op != "+" && t.Op != "*" {
			return errf(t.Pos, "range bounds use only + and *")
		}
		if err := v.rangeBound(t.L); err != nil {
			return err
		}
		return v.rangeBound(t.R)
	}
	return errf(e.Position(), "range bounds must be compile-time integers")
}

func (v *validator) expr(e Expr, insideReduce bool) error {
	switch t := e.(type) {
	case *IntLit, *FloatLit, *BoolLit, *NoneLit:
		return nil
	case *Name:
		if !v.defined[t.Slot] {
			return errf(t.Pos, "undefined name %q", t.Ident)
		}
		return nil
	case *IndexExpr:
		if err := v.expr(t.X, false); err != nil {
			return err
		}
		return v.expr(t.Index, false)
	case *ArrayLit:
		return v.rangeBound(t.Size)
	case *BinOp:
		if err := v.expr(t.L, false); err != nil {
			return err
		}
		return v.expr(t.R, false)
	case *ListCompr:
		if !insideReduce {
			return errf(t.Pos, "list comprehension may only appear inside a reduce_* call")
		}
		if err := v.rangeBound(t.From); err != nil {
			return err
		}
		if err := v.rangeBound(t.To); err != nil {
			return err
		}
		outer := v.defined[t.Slot]
		v.defined[t.Slot] = true
		defer func() { v.defined[t.Slot] = outer }()
		if err := v.expr(t.Elem, false); err != nil {
			return err
		}
		if t.Cond != nil {
			return v.expr(t.Cond, false)
		}
		return nil
	case *Call:
		sig, ok := builtins[t.Fn]
		if !ok {
			return errf(t.Pos, "unknown function %q", t.Fn)
		}
		switch t.Fn {
		case "loadData", "loadParams", "init":
			return errf(t.Pos, "%s() may only appear as a statement right-hand side", t.Fn)
		case "range":
			return errf(t.Pos, "range() may only appear in for-loops and list comprehensions")
		}
		if len(t.Args) < sig.minArgs || len(t.Args) > sig.maxArgs {
			return errf(t.Pos, "%s() takes %d argument(s), got %d", t.Fn, sig.minArgs, len(t.Args))
		}
		isReduce := len(t.Fn) > 7 && t.Fn[:7] == "reduce_"
		if isReduce {
			if _, ok := t.Args[0].(*ListCompr); !ok {
				return errf(t.Pos, "%s() requires a list comprehension argument", t.Fn)
			}
			return v.expr(t.Args[0], true)
		}
		if t.Fn == "pow" {
			if _, ok := t.Args[1].(*IntLit); !ok {
				if err := v.rangeBound(t.Args[1]); err != nil {
					return errf(t.Pos, "pow() exponent must be a compile-time integer")
				}
			}
		}
		for _, a := range t.Args {
			if err := v.expr(a, false); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("lang: unknown expression type %T", e)
}
