package network

import (
	"fmt"
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
		slices.EqualFunc(a.Vals, b.Vals, func(x, y event.Value) bool { return sameBits(&x, &y) }) &&
		slices.Equal(a.Targets, b.Targets)
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
	var t table
	ca := canonicalIDs(a, &t)
	cb := canonicalIDs(b, &t)
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
func canonicalIDs(net *Net, t *table) []NodeID {
	canon := make([]NodeID, net.NumNodes())
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
		var val *event.Value
		if kind == KCondVal {
			val = &net.Vals[net.Arg[id]]
		}
		canon[id], _ = t.intern(kind, net.Arg[id], val, kids)
	}
	return canon
}
