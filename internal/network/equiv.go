package network

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"enframe/internal/event"
)

// Equal reports whether two networks are identical column for column — node
// kinds, child and parent spans, payloads (⊗ constants bit for bit), and
// targets — and were built over variable spaces of the same size. Marginal
// probabilities are not compared: they are replay inputs, not structure, so
// a decision circuit traced over one network replays over the other at any
// probabilities. The streaming plane keeps a window segment's circuit
// across a re-ground exactly when the old and new networks are Equal.
func Equal(a, b *Net) bool {
	return len(a.VarNode) == len(b.VarNode) &&
		slices.Equal(a.Kind, b.Kind) &&
		slices.Equal(a.KidOff, b.KidOff) && slices.Equal(a.Kids, b.Kids) &&
		slices.Equal(a.ParOff, b.ParOff) && slices.Equal(a.Pars, b.Pars) &&
		slices.Equal(a.Arg, b.Arg) &&
		slices.EqualFunc(a.Vals, b.Vals, sameBits) &&
		slices.Equal(a.Targets, b.Targets)
}

// sameBits reports whether two c-values are identical bit for bit, the
// identity hash-consing gives ⊗ payloads.
func sameBits(x, y event.Value) bool {
	same := func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }
	return x.Kind == y.Kind && x.B == y.B && same(x.S, y.S) && slices.EqualFunc(x.V, y.V, same)
}

// Isomorphic reports whether two networks are structurally identical up to
// node numbering and commutative ∧/∨ child order: every target name must
// exist in both nets and root DAGs that hash-cons to the same canonical
// form. Σ/Π child order is compared exactly — float addition is not
// associative-commutative, so reordered sums are NOT isomorphic here even
// though they are mathematically equal. A nil error means any evaluator
// that respects child order computes bit-identical results on both nets.
//
// It is the oracle check between the network the front end builds and one
// grounded from the emitted event-program AST (internal/difftest).
func Isomorphic(a, b *Net) error {
	an := targetsByName(a)
	bn := targetsByName(b)
	if len(an) != len(bn) {
		return fmt.Errorf("network: target count differs: %d vs %d", len(an), len(bn))
	}
	names := make([]string, 0, len(an))
	for name := range an {
		if _, ok := bn[name]; !ok {
			return fmt.Errorf("network: target %q missing from second net", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	// Re-intern both nets into one shared canonical id space: nodes are in
	// topological order (kids precede parents), so a single ascending scan
	// resolves each node's canonical form from its kids' canonical ids.
	table := make(map[string]NodeID, a.NumNodes()+b.NumNodes())
	ca := canonicalIDs(a, table)
	cb := canonicalIDs(b, table)
	for _, name := range names {
		if ca[an[name]] != cb[bn[name]] {
			return fmt.Errorf("network: target %q differs structurally", name)
		}
	}
	return nil
}

func targetsByName(n *Net) map[string]NodeID {
	out := make(map[string]NodeID, len(n.Targets))
	for _, t := range n.Targets {
		out[t.Name] = t.Node
	}
	return out
}

// canonicalIDs assigns every node a canonical id from the shared table. Two
// nodes — same net or not — get the same canonical id iff their DAGs are
// isomorphic under the Isomorphic contract.
func canonicalIDs(net *Net, table map[string]NodeID) []NodeID {
	canon := make([]NodeID, net.NumNodes())
	var buf []byte
	var kids []NodeID
	for id, kind := range net.Kind {
		kids = kids[:0]
		for _, k := range net.KidsOf(NodeID(id)) {
			kids = append(kids, canon[k])
		}
		if kind == KAnd || kind == KOr {
			// Commutative connectives compare order-insensitively; their
			// canonical kid ids define the canonical order.
			slices.Sort(kids)
		}
		n := node{kind: kind, arg: net.Arg[id], kids: kids}
		if kind == KCondVal {
			n.val = net.Vals[n.arg]
		}
		buf = appendInternKey(buf[:0], &n)
		c, ok := table[string(buf)]
		if !ok {
			c = NodeID(len(table))
			table[string(buf)] = c
		}
		canon[id] = c
	}
	return canon
}
