package event

// Valuation maps random variables to truth values; it is a sample point
// ν ∈ Ω of the probability space induced by X (§3.3).
type Valuation interface {
	Value(x VarID) bool
}

// SliceValuation is a Valuation backed by a dense slice indexed by VarID.
type SliceValuation []bool

// Value implements Valuation.
func (s SliceValuation) Value(x VarID) bool { return s[x] }

// Evaluator evaluates event expressions under one valuation, memoising on
// shared subexpression pointers so that DAG-shaped formulas are evaluated in
// time linear in the number of distinct subexpressions.
type Evaluator struct {
	nu   Valuation
	memo map[Expr]bool
}

// NewEvaluator returns an evaluator for the given valuation.
func NewEvaluator(nu Valuation) *Evaluator {
	return &Evaluator{nu: nu, memo: make(map[Expr]bool)}
}

// EvalExpr computes ν(e) for a Boolean event expression.
func (ev *Evaluator) EvalExpr(e Expr) bool {
	if b, ok := ev.memo[e]; ok {
		return b
	}
	var out bool
	switch t := e.(type) {
	case *Var:
		out = ev.nu.Value(t.X)
	case *Const:
		out = t.B
	case *Not:
		out = !ev.EvalExpr(t.E)
	case *And:
		out = true
		for _, c := range t.Es {
			if !ev.EvalExpr(c) {
				out = false
				break
			}
		}
	case *Or:
		out = false
		for _, c := range t.Es {
			if ev.EvalExpr(c) {
				out = true
				break
			}
		}
	default:
		panic("event: unknown expression type")
	}
	ev.memo[e] = out
	return out
}

// EvalExpr evaluates a Boolean event under one valuation with a fresh
// evaluator.
func EvalExpr(e Expr, nu Valuation) bool { return NewEvaluator(nu).EvalExpr(e) }
