package prob

import (
	"sort"

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
	// nodes transitively reachable upward from the variable's leaf.
	influence := make(map[event.VarID]int, len(vars))
	visited := make([]int32, net.NumNodes())
	epoch := int32(0)
	stack := make([]network.NodeID, 0, 128)
	for _, x := range vars {
		epoch++
		count := 0
		stack = append(stack[:0], net.VarNode[x])
		visited[net.VarNode[x]] = epoch
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, p := range net.ParsOf(id) {
				if visited[p] != epoch {
					visited[p] = epoch
					stack = append(stack, p)
				}
			}
		}
		influence[x] = count
	}
	sort.SliceStable(vars, func(i, j int) bool {
		if influence[vars[i]] != influence[vars[j]] {
			return influence[vars[i]] > influence[vars[j]]
		}
		return vars[i] < vars[j]
	})
	return vars
}
