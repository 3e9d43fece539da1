package network

import (
	"fmt"
	"math"
	"testing"

	"enframe/internal/event"
)

// buildMixedNet constructs a network covering every node kind, with shared
// subexpressions so fan-out exceeds one, and a comparison whose two operands
// are the same node (one kid listed twice).
func buildMixedNet() *Net {
	sp := event.NewSpace()
	for i := 0; i < 4; i++ {
		sp.Add(fmt.Sprintf("x%d", i), 0.5)
	}
	b := NewBuilder(sp, nil)
	v0, v1 := b.Var(0), b.Var(1)
	c0 := b.CondVal(v0, event.Num(2))
	c1 := b.CondVal(v1, event.Num(3))
	s := b.Sum(c0, c1, b.ConstNum(event.Num(1)))
	g := b.Guard(v0, s)
	cmp := b.Cmp(event.LE, g, c1)
	and := b.And(cmp, b.Not(v1))
	b.Target("t", b.Or(and, b.Var(2)))
	b.Target("u", and) // shared target node: two targets, overlapping cones
	p := b.Prod(b.Inv(g), b.Pow(s, 3))
	b.Target("w", b.Cmp(event.EQ, p, p))
	return b.Build()
}

// builtNets is the corpus the invariant tests run over: the mixed net, the
// equality fixtures, and a target-free build (no sweep).
func builtNets() map[string]*Net {
	sp := event.NewSpace()
	x := sp.Add("x", 0.5)
	sp.Add("unused", 0.5)
	b := NewBuilder(sp, nil)
	b.Not(b.Var(x))
	b.CondVal(b.Var(x), event.Num(1))
	// A shared c-value, signed zeros, and a dist fold over two ⊗ nodes.
	b.CondVal(b.Not(b.Var(x)), event.Num(1))
	b.CondVal(b.Var(x), event.Num(0))
	b.CondVal(b.Var(x), event.Num(math.Copysign(0, -1)))
	b.Dist(b.CondVal(b.Var(x), event.Vect([]float64{0, 0})), b.CondVal(b.Not(b.Var(x)), event.Vect([]float64{0, 1})))
	return map[string]*Net{
		"mixed":      buildMixedNet(),
		"fixture":    buildEqNet(0.5, "t1"),
		"untargeted": b.Build(),
	}
}

// TestBuiltNetCSRInvariants: node ids are topological and the child offsets
// tile the shared edge slice. The network stores no parent spans; the
// compiler's parent index is checked against Kids in internal/prob.
func TestBuiltNetCSRInvariants(t *testing.T) {
	for name, n := range builtNets() {
		nn := n.NumNodes()
		if len(n.KidOff) != nn+1 || len(n.Arg) != nn {
			t.Fatalf("%s: column lengths kid %d arg %d for %d nodes", name, len(n.KidOff), len(n.Arg), nn)
		}
		if n.KidOff[0] != 0 || int(n.KidOff[nn]) != len(n.Kids) {
			t.Fatalf("%s: offsets do not tile the edge slice", name)
		}
		for id := range nn {
			if n.KidOff[id] > n.KidOff[id+1] {
				t.Fatalf("%s: node %d: offsets not monotone", name, id)
			}
			for _, k := range n.KidsOf(NodeID(id)) {
				if k >= NodeID(id) {
					t.Errorf("%s: node %d has kid %d, not lower", name, id, k)
				}
			}
		}
	}
}

// TestBuiltNetPayloadInvariants: VarNode and the KVar payloads are inverse
// maps, Vals holds each ⊗ node's c-value once — entries pairwise distinct
// bit for bit, numbered in order of first use by id — and every target is a
// Boolean-kind node.
func TestBuiltNetPayloadInvariants(t *testing.T) {
	for name, n := range builtNets() {
		if len(n.VarNode) != n.Space.Len() {
			t.Errorf("%s: VarNode has %d entries for %d variables", name, len(n.VarNode), n.Space.Len())
		}
		for x, id := range n.VarNode {
			if id != NoNode && (n.Kind[id] != KVar || n.Arg[id] != int32(x)) {
				t.Errorf("%s: VarNode[%d] = %d, which is not x%d's leaf", name, x, id, x)
			}
		}
		vals := 0
		for id, k := range n.Kind {
			switch k {
			case KVar:
				if n.VarNode[n.Arg[id]] != NodeID(id) {
					t.Errorf("%s: leaf %d of x%d missing from VarNode", name, id, n.Arg[id])
				}
			case KCondVal:
				switch vi := n.Arg[id]; {
				case vi == int32(vals):
					vals++
				case vi > int32(vals) || vi < 0:
					t.Errorf("%s: ⊗ node %d has Vals index %d before index %d is used", name, id, vi, vals)
				}
			}
		}
		if vals != len(n.Vals) {
			t.Errorf("%s: ⊗ nodes use %d Vals entries, %d stored", name, vals, len(n.Vals))
		}
		for i := range n.Vals {
			for j := range i {
				if sameBits(&n.Vals[i], &n.Vals[j]) {
					t.Errorf("%s: Vals %d and %d are the same c-value %v", name, j, i, n.Vals[i])
				}
			}
		}
		for _, tg := range n.Targets {
			if !n.Kind[tg.Node].IsBool() {
				t.Errorf("%s: target %q is a %s node", name, tg.Name, n.Kind[tg.Node])
			}
		}
	}
}
