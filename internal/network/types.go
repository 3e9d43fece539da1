package network

import (
	"fmt"

	"enframe/internal/event"
)

// ValueType is the static type of a node's defined outcomes.
type ValueType uint8

const (
	// TBool marks Boolean nodes.
	TBool ValueType = iota
	// TScalar marks numeric nodes whose defined outcomes are reals.
	TScalar
	// TVector marks numeric nodes whose defined outcomes are feature
	// vectors.
	TVector
)

func (t ValueType) String() string {
	switch t {
	case TBool:
		return "bool"
	case TScalar:
		return "scalar"
	case TVector:
		return "vector"
	}
	return fmt.Sprintf("ValueType(%d)", uint8(t))
}

// Types computes the static type of every node. Event programs are
// well-typed by construction of the translator and encoders; Types reports
// an error for ill-typed networks (e.g. a comparison between vectors), which
// the probability compiler refuses to process.
func (n *Net) Types() ([]ValueType, error) {
	ts := make([]ValueType, n.NumNodes())
	numKid := func(id NodeID, k NodeID) (ValueType, error) {
		t := ts[k]
		if t == TBool {
			return 0, fmt.Errorf("network: node %d: numeric operand %d is Boolean", id, k)
		}
		return t, nil
	}
	for id, kind := range n.Kind {
		kids := n.KidsOf(NodeID(id))
		switch kind {
		case KVar, KConst, KNot, KAnd, KOr:
			ts[id] = TBool
		case KCmp:
			for _, k := range kids {
				t, err := numKid(NodeID(id), k)
				if err != nil {
					return nil, err
				}
				if t != TScalar {
					return nil, fmt.Errorf("network: node %d: comparison over %s operands", id, t)
				}
			}
			ts[id] = TBool
		case KCondVal:
			switch n.Vals[n.Arg[id]].Kind {
			case event.Vector:
				ts[id] = TVector
			default:
				ts[id] = TScalar
			}
		case KGuard:
			t, err := numKid(NodeID(id), kids[1])
			if err != nil {
				return nil, err
			}
			ts[id] = t
		case KSum:
			t0 := TScalar
			for i, k := range kids {
				t, err := numKid(NodeID(id), k)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					t0 = t
				} else if t != t0 {
					return nil, fmt.Errorf("network: node %d: sum of mixed scalar/vector operands", id)
				}
			}
			ts[id] = t0
		case KProd:
			// Scalars multiply; one vector operand makes the product a
			// vector (scalar_mult); two vector operands are ill-typed.
			vecs := 0
			for _, k := range kids {
				t, err := numKid(NodeID(id), k)
				if err != nil {
					return nil, err
				}
				if t == TVector {
					vecs++
				}
			}
			if vecs > 1 {
				return nil, fmt.Errorf("network: node %d: product of two vectors", id)
			}
			if vecs == 1 {
				ts[id] = TVector
			} else {
				ts[id] = TScalar
			}
		case KInv, KPow:
			t, err := numKid(NodeID(id), kids[0])
			if err != nil {
				return nil, err
			}
			if t != TScalar {
				return nil, fmt.Errorf("network: node %d: %s of a vector", id, kind)
			}
			ts[id] = TScalar
		case KDist:
			for _, k := range kids {
				t, err := numKid(NodeID(id), k)
				if err != nil {
					return nil, err
				}
				if t != TVector {
					return nil, fmt.Errorf("network: node %d: dist over %s operand", id, t)
				}
			}
			ts[id] = TScalar
		}
	}
	return ts, nil
}
