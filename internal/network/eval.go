package network

import (
	"enframe/internal/event"
)

// Assignment holds the evaluated values of every node under one complete
// valuation: Bools for Boolean nodes and Nums for numeric nodes.
type Assignment struct {
	Bools []bool
	Nums  []event.Value
}

// Eval evaluates the whole network bottom-up under a complete valuation.
// Node ids are topologically ordered by construction, so a single pass
// suffices. It is what the §3 semantics check reads: internal/difftest
// grounds each generated program with no targets, so every node is kept,
// and compares every bound symbol's node with the interpreter in every
// world. It is the one per-world evaluator of c-values;
// TestEvalMatchesEventSemantics ties it on lineage formulas to
// internal/event's Boolean evaluator.
func (n *Net) Eval(nu event.Valuation) Assignment {
	a := Assignment{
		Bools: make([]bool, n.NumNodes()),
		Nums:  make([]event.Value, n.NumNodes()),
	}
	for id, kind := range n.Kind {
		kids := n.KidsOf(NodeID(id))
		arg := n.Arg[id]
		switch kind {
		case KVar:
			a.Bools[id] = nu.Value(event.VarID(arg))
		case KConst:
			a.Bools[id] = arg != 0
		case KNot:
			a.Bools[id] = !a.Bools[kids[0]]
		case KAnd:
			v := true
			for _, k := range kids {
				if !a.Bools[k] {
					v = false
					break
				}
			}
			a.Bools[id] = v
		case KOr:
			v := false
			for _, k := range kids {
				if a.Bools[k] {
					v = true
					break
				}
			}
			a.Bools[id] = v
		case KCmp:
			a.Bools[id] = event.Compare(event.CmpOp(arg), a.Nums[kids[0]], a.Nums[kids[1]])
		case KCondVal:
			if a.Bools[kids[0]] {
				a.Nums[id] = n.Vals[arg]
			} else {
				a.Nums[id] = event.U
			}
		case KGuard:
			if a.Bools[kids[0]] {
				a.Nums[id] = a.Nums[kids[1]]
			} else {
				a.Nums[id] = event.U
			}
		case KSum:
			v := event.U
			for _, k := range kids {
				v = event.Add(v, a.Nums[k])
			}
			a.Nums[id] = v
		case KProd:
			v := event.Num(1)
			for _, k := range kids {
				v = event.Mul(v, a.Nums[k])
			}
			a.Nums[id] = v
		case KInv:
			a.Nums[id] = event.Inv(a.Nums[kids[0]])
		case KPow:
			a.Nums[id] = event.PowVal(a.Nums[kids[0]], int(arg))
		case KDist:
			a.Nums[id] = event.DistVal(n.Metric, a.Nums[kids[0]], a.Nums[kids[1]])
		}
	}
	return a
}
