package prob

import (
	"math/bits"
	"slices"

	"enframe/internal/event"
	"enframe/internal/network"
)

// computeOrder returns the Shannon-expansion variable order. Variables that
// do not occur in the network are excluded: their assignments cannot change
// any mask and their probability mass marginalises out.
func computeOrder(net *network.Net, opts Options) []event.VarID {
	if opts.Order != nil {
		var order []event.VarID
		for _, x := range opts.Order {
			if net.VarNode[x] != network.NoNode {
				order = append(order, x)
			}
		}
		return order
	}
	var vars []event.VarID
	for x, id := range net.VarNode {
		if id != network.NoNode {
			vars = append(vars, event.VarID(x))
		}
	}
	if opts.Heuristic == InputOrder {
		return vars
	}
	// FanoutOrder: the paper picks the next variable to "influence as many
	// events as possible"; we order statically by the number of network
	// nodes transitively reachable upward from the variable's leaf, most
	// first, ties by variable id.
	influence := fanout(net, vars)
	slices.SortFunc(vars, func(x, y event.VarID) int {
		if ix, iy := influence[x], influence[y]; ix != iy {
			return iy - ix
		}
		return int(x) - int(y)
	})
	return vars
}

// fanout counts, for every variable of vars (which occur in the network),
// the nodes whose value depends on it: the nodes reachable upward from its
// leaf, the leaf included. Node ids are topologically ordered, so one
// forward pass over the child spans gives each node the set of variables
// beneath it — a row of ⌈|vars|/64⌉ words, the OR of its children's rows,
// seeded with its own bit at a variable's leaf — and a variable's count is
// the number of rows that hold its bit. The pass needs no parent index.
// The result is indexed by variable id.
func fanout(net *network.Net, vars []event.VarID) []int {
	influence := make([]int, len(net.VarNode))
	w := (len(vars) + 63) / 64
	sets := make([]uint64, net.NumNodes()*w)
	for i, x := range vars {
		sets[int(net.VarNode[x])*w+i>>6] |= 1 << (i & 63)
	}
	for id := range net.NumNodes() {
		row := sets[id*w : id*w+w]
		for _, k := range net.KidsOf(network.NodeID(id)) {
			for j, kw := range sets[int(k)*w : int(k)*w+w] {
				row[j] |= kw
			}
		}
		for j, word := range row {
			for ; word != 0; word &= word - 1 {
				influence[vars[j<<6+bits.TrailingZeros64(word)]]++
			}
		}
	}
	return influence
}
