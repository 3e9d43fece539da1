package translate

import (
	"enframe/internal/event"
	"enframe/internal/network"
)

// eref and nref are opaque handles to Boolean events and c-values held by an
// emitter. The translator core is written entirely against handles, so the
// same evaluation code drives both emitters: the AST emitter (handles
// index side tables of event.Expr/event.NumExpr) and the fused network
// emitter (handles ARE hash-consed network node ids).
type eref int32

type nref int32

// emitter is the translation back end: every event-construction site in the
// evaluator goes through it. Implementations must mirror the simplifications
// of the event constructors (¬¬e = e, ∧/∨ flattening, guard fusion) so both
// back ends denote the same networks.
type emitter interface {
	boolConst(v bool) eref
	constNum(v event.Value) nref
	// lineage grounds an externally supplied lineage expression (the Φ(o_l)
	// of loadData and init bindings).
	lineage(e event.Expr) eref
	not(e eref) eref
	and(es []eref) eref
	and2(l, r eref) eref
	or(es []eref) eref
	or2(l, r eref) eref
	atom(op event.CmpOp, l, r nref) eref
	condVal(guard eref, val event.Value) nref
	guardNum(guard eref, v nref) nref
	sum(xs []nref) nref
	sum2(l, r nref) nref
	prod(xs []nref) nref
	prod2(l, r nref) nref
	inv(x nref) nref
	pow(x nref, exp int) nref
	dist(l, r nref) nref
	declareBool(label string, e eref)
	declareNum(label string, n nref)
}

// astEmitter materialises the event-program AST (§3.5) for -dump-events and
// the §3 semantics oracle.
// Handles index the bools/nums side tables; slots 0/1 of bools are
// pre-seeded with ⊥/⊤ so constants resolve without allocation.
type astEmitter struct {
	prog  *event.Program
	bools []event.Expr
	nums  []event.NumExpr
}

func newASTEmitter(prog *event.Program) *astEmitter {
	return &astEmitter{prog: prog, bools: []event.Expr{event.False, event.True}}
}

func (a *astEmitter) putB(e event.Expr) eref {
	a.bools = append(a.bools, e)
	return eref(len(a.bools) - 1)
}

func (a *astEmitter) putN(x event.NumExpr) nref {
	a.nums = append(a.nums, x)
	return nref(len(a.nums) - 1)
}

func (a *astEmitter) boolAt(e eref) event.Expr   { return a.bools[e] }
func (a *astEmitter) numAt(n nref) event.NumExpr { return a.nums[n] }

func (a *astEmitter) boolSlice(es []eref) []event.Expr {
	out := make([]event.Expr, len(es))
	for i, e := range es {
		out[i] = a.bools[e]
	}
	return out
}

func (a *astEmitter) numSlice(xs []nref) []event.NumExpr {
	out := make([]event.NumExpr, len(xs))
	for i, x := range xs {
		out[i] = a.nums[x]
	}
	return out
}

func (a *astEmitter) boolConst(v bool) eref {
	if v {
		return 1
	}
	return 0
}

func (a *astEmitter) constNum(v event.Value) nref { return a.putN(event.NewConstNum(v)) }
func (a *astEmitter) lineage(e event.Expr) eref   { return a.putB(e) }
func (a *astEmitter) not(e eref) eref             { return a.putB(event.NewNot(a.bools[e])) }
func (a *astEmitter) and(es []eref) eref          { return a.putB(event.NewAnd(a.boolSlice(es)...)) }
func (a *astEmitter) and2(l, r eref) eref         { return a.putB(event.NewAnd(a.bools[l], a.bools[r])) }
func (a *astEmitter) or(es []eref) eref           { return a.putB(event.NewOr(a.boolSlice(es)...)) }
func (a *astEmitter) or2(l, r eref) eref          { return a.putB(event.NewOr(a.bools[l], a.bools[r])) }

func (a *astEmitter) atom(op event.CmpOp, l, r nref) eref {
	return a.putB(event.NewAtom(op, a.nums[l], a.nums[r]))
}

func (a *astEmitter) condVal(guard eref, val event.Value) nref {
	return a.putN(event.NewCondVal(a.bools[guard], val))
}

func (a *astEmitter) guardNum(guard eref, v nref) nref {
	return a.putN(event.NewGuard(a.bools[guard], a.nums[v]))
}

func (a *astEmitter) sum(xs []nref) nref  { return a.putN(event.NewSum(a.numSlice(xs)...)) }
func (a *astEmitter) sum2(l, r nref) nref { return a.putN(event.NewSum(a.nums[l], a.nums[r])) }
func (a *astEmitter) prod(xs []nref) nref { return a.putN(event.NewProd(a.numSlice(xs)...)) }
func (a *astEmitter) prod2(l, r nref) nref {
	return a.putN(event.NewProd(a.nums[l], a.nums[r]))
}
func (a *astEmitter) inv(x nref) nref          { return a.putN(event.NewInv(a.nums[x])) }
func (a *astEmitter) pow(x nref, exp int) nref { return a.putN(event.NewPow(a.nums[x], exp)) }
func (a *astEmitter) dist(l, r nref) nref      { return a.putN(event.NewDist(a.nums[l], a.nums[r])) }

func (a *astEmitter) declareBool(label string, e eref) { a.prog.DeclareBool(label, a.bools[e]) }
func (a *astEmitter) declareNum(label string, n nref)  { a.prog.DeclareNum(label, a.nums[n]) }

// netEmitter is the fused back end (§3.5 + §4.1 in one pass): handles are
// network node ids and every construction interns directly into the
// hash-consed DAG, so the event-program AST is never materialised.
type netEmitter struct {
	b *network.Builder
	// ids is the reusable handle-conversion scratch for n-ary emissions;
	// pair keeps binary emissions off the heap.
	ids  []network.NodeID
	pair [2]network.NodeID
}

func (ne *netEmitter) toIDs(es []eref) []network.NodeID {
	ids := ne.ids[:0]
	for _, e := range es {
		ids = append(ids, network.NodeID(e))
	}
	ne.ids = ids
	return ids
}

func (ne *netEmitter) toNumIDs(xs []nref) []network.NodeID {
	ids := ne.ids[:0]
	for _, x := range xs {
		ids = append(ids, network.NodeID(x))
	}
	ne.ids = ids
	return ids
}

func (ne *netEmitter) boolConst(v bool) eref        { return eref(ne.b.Bool(v)) }
func (ne *netEmitter) constNum(v event.Value) nref  { return nref(ne.b.ConstNum(v)) }
func (ne *netEmitter) lineage(e event.Expr) eref    { return eref(ne.b.AddExpr(e)) }
func (ne *netEmitter) not(e eref) eref              { return eref(ne.b.Not(network.NodeID(e))) }
func (ne *netEmitter) and(es []eref) eref           { return eref(ne.b.And(ne.toIDs(es)...)) }
func (ne *netEmitter) or(es []eref) eref            { return eref(ne.b.Or(ne.toIDs(es)...)) }

func (ne *netEmitter) and2(l, r eref) eref {
	ne.pair[0], ne.pair[1] = network.NodeID(l), network.NodeID(r)
	return eref(ne.b.And(ne.pair[:]...))
}

func (ne *netEmitter) or2(l, r eref) eref {
	ne.pair[0], ne.pair[1] = network.NodeID(l), network.NodeID(r)
	return eref(ne.b.Or(ne.pair[:]...))
}

func (ne *netEmitter) atom(op event.CmpOp, l, r nref) eref {
	return eref(ne.b.Cmp(op, network.NodeID(l), network.NodeID(r)))
}

func (ne *netEmitter) condVal(guard eref, val event.Value) nref {
	return nref(ne.b.CondVal(network.NodeID(guard), val))
}

func (ne *netEmitter) guardNum(guard eref, v nref) nref {
	return nref(ne.b.Guard(network.NodeID(guard), network.NodeID(v)))
}

func (ne *netEmitter) sum(xs []nref) nref  { return nref(ne.b.Sum(ne.toNumIDs(xs)...)) }
func (ne *netEmitter) prod(xs []nref) nref { return nref(ne.b.Prod(ne.toNumIDs(xs)...)) }

func (ne *netEmitter) sum2(l, r nref) nref {
	ne.pair[0], ne.pair[1] = network.NodeID(l), network.NodeID(r)
	return nref(ne.b.Sum(ne.pair[:]...))
}

func (ne *netEmitter) prod2(l, r nref) nref {
	ne.pair[0], ne.pair[1] = network.NodeID(l), network.NodeID(r)
	return nref(ne.b.Prod(ne.pair[:]...))
}

func (ne *netEmitter) inv(x nref) nref { return nref(ne.b.Inv(network.NodeID(x))) }

func (ne *netEmitter) pow(x nref, exp int) nref {
	return nref(ne.b.Pow(network.NodeID(x), exp))
}

func (ne *netEmitter) dist(l, r nref) nref {
	return nref(ne.b.Dist(network.NodeID(l), network.NodeID(r)))
}

// The fused path never emits labelled declarations: labels only exist to
// name intermediates in the event-program artifact, and final variable
// bindings are tracked in the translator environment itself.
func (ne *netEmitter) declareBool(string, eref) {}
func (ne *netEmitter) declareNum(string, nref)  {}
