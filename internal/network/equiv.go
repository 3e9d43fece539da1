package network

import (
	"fmt"
	"slices"
	"sort"
)

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
	table := make(map[string]NodeID, len(a.Nodes)+len(b.Nodes))
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
	canon := make([]NodeID, len(net.Nodes))
	var buf []byte
	var kids []NodeID
	for id, n := range net.Nodes {
		kids = kids[:0]
		for _, k := range n.Kids {
			kids = append(kids, canon[k])
		}
		if n.Kind == KAnd || n.Kind == KOr {
			// Commutative connectives compare order-insensitively; their
			// canonical kid ids define the canonical order.
			slices.Sort(kids)
		}
		nn := n
		nn.Kids = kids
		buf = appendInternKey(buf[:0], nn)
		c, ok := table[string(buf)]
		if !ok {
			c = NodeID(len(table))
			table[string(buf)] = c
		}
		canon[id] = c
	}
	return canon
}
