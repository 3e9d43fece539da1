package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed user program. The parser resolves every variable
// name to a slot, the index of its identifier in Names: each Name, LValue,
// loop and comprehension variable, and tuple-bound name carries its slot, so
// an evaluator can keep its environment in a slice indexed by slot instead
// of a map keyed by string. There is one slot per distinct identifier, not
// per scope; a loop or comprehension variable shadows an outer binding by
// saving and restoring the slot's value. The AST is never modified after
// parsing, so one Program is safe to evaluate from many goroutines.
type Program struct {
	Stmts []Stmt
	Names []string
}

// Stmt is a statement: an assignment, an external tuple binding, or a
// bounded-range loop.
type Stmt interface {
	stmt()
	Position() Pos
}

// Assign is `lvalue = expr`, covering scalar assignments, array element
// assignments, array initialisations, and single-name external calls such
// as `M = init()`.
type Assign struct {
	Pos    Pos
	Target LValue
	Value  Expr
}

// TupleAssign is `(a, b, …) = loadData()` / `= loadParams()`.
type TupleAssign struct {
	Pos   Pos
	Names []string
	Slots []int
	Fn    string
}

// For is `for ID in range(from, to):` with a nested body.
type For struct {
	Pos      Pos
	Var      string
	Slot     int
	From, To Expr
	Body     []Stmt
}

func (*Assign) stmt()      {}
func (*TupleAssign) stmt() {}
func (*For) stmt()         {}

func (s *Assign) Position() Pos      { return s.Pos }
func (s *TupleAssign) Position() Pos { return s.Pos }
func (s *For) Position() Pos         { return s.Pos }

// LValue is an assignable location: a name with zero or more index
// subscripts.
type LValue struct {
	Pos     Pos
	Name    string
	Slot    int
	Indices []Expr
}

// Expr is an expression node.
type Expr interface {
	expr()
	Position() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	V   int
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos Pos
	V   float64
}

// BoolLit is True or False.
type BoolLit struct {
	Pos Pos
	V   bool
}

// NoneLit is None.
type NoneLit struct{ Pos Pos }

// Name references a variable.
type Name struct {
	Pos   Pos
	Ident string
	Slot  int
}

// IndexExpr is `x[i]`.
type IndexExpr struct {
	Pos   Pos
	X     Expr
	Index Expr
}

// ArrayLit is `[None] * size`.
type ArrayLit struct {
	Pos  Pos
	Size Expr
}

// BinOp is a binary operation: '+', '*', or a comparison.
type BinOp struct {
	Pos  Pos
	Op   string
	L, R Expr
}

// Call is a builtin call: dist, pow, invert, scalar_mult, breakTies{,1,2},
// reduce_*, range (inside loops), loadData, loadParams, init.
type Call struct {
	Pos  Pos
	Fn   string
	Args []Expr
}

// ListCompr is `[elem for v in range(from, to) if cond]`; Cond is nil when
// absent.
type ListCompr struct {
	Pos      Pos
	Elem     Expr
	Var      string
	Slot     int
	From, To Expr
	Cond     Expr
}

func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*BoolLit) expr()   {}
func (*NoneLit) expr()   {}
func (*Name) expr()      {}
func (*IndexExpr) expr() {}
func (*ArrayLit) expr()  {}
func (*BinOp) expr()     {}
func (*Call) expr()      {}
func (*ListCompr) expr() {}

func (e *IntLit) Position() Pos    { return e.Pos }
func (e *FloatLit) Position() Pos  { return e.Pos }
func (e *BoolLit) Position() Pos   { return e.Pos }
func (e *NoneLit) Position() Pos   { return e.Pos }
func (e *Name) Position() Pos      { return e.Pos }
func (e *IndexExpr) Position() Pos { return e.Pos }
func (e *ArrayLit) Position() Pos  { return e.Pos }
func (e *BinOp) Position() Pos     { return e.Pos }
func (e *Call) Position() Pos      { return e.Pos }
func (e *ListCompr) Position() Pos { return e.Pos }

// String renders expressions in user-language syntax (for diagnostics).
func ExprString(e Expr) string {
	switch t := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", t.V)
	case *FloatLit:
		return fmt.Sprintf("%g", t.V)
	case *BoolLit:
		if t.V {
			return "True"
		}
		return "False"
	case *NoneLit:
		return "None"
	case *Name:
		return t.Ident
	case *IndexExpr:
		return fmt.Sprintf("%s[%s]", ExprString(t.X), ExprString(t.Index))
	case *ArrayLit:
		return fmt.Sprintf("[None] * %s", ExprString(t.Size))
	case *BinOp:
		return fmt.Sprintf("(%s %s %s)", ExprString(t.L), t.Op, ExprString(t.R))
	case *Call:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", t.Fn, strings.Join(args, ", "))
	case *ListCompr:
		s := fmt.Sprintf("[%s for %s in range(%s, %s)",
			ExprString(t.Elem), t.Var, ExprString(t.From), ExprString(t.To))
		if t.Cond != nil {
			s += " if " + ExprString(t.Cond)
		}
		return s + "]"
	}
	return "?"
}
