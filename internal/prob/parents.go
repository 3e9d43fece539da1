package prob

import "enframe/internal/network"

// parentIndex is the transpose of a network's child spans: node id's parents
// are ids[off[id]:off[id+1]], in increasing id order, a parent listed once
// per edge (a comparison of a node with itself lists it twice). Only
// compilation walks a network upward — propagation, the unassigned-variable
// scan, the FanoutOrder heuristic — so network.Net stores children only and
// each compilation derives this index once, in one O(nodes + edges) pass
// (ensure); its worker states and a Session's job workers share it through
// ftables. A cached network thus keeps no compiler working state.
type parentIndex struct {
	off []int32
	ids []network.NodeID
}

// ensure builds the index over net unless it is built already, so a compile
// that computes its own variable order and then propagates pays one pass.
func (p *parentIndex) ensure(net *network.Net) {
	if p.off != nil {
		return
	}
	nn := net.NumNodes()
	p.off = make([]int32, nn+1)
	p.ids = make([]network.NodeID, len(net.Kids))
	for _, k := range net.Kids {
		p.off[k+1]++ // counted at k+1: prefix sums give starts
	}
	for id := 1; id <= nn; id++ {
		p.off[id] += p.off[id-1]
	}
	// Scatter every edge with off[k] as k's cursor, parents in increasing id
	// order; that leaves off[k] at k's end, so shifting the column right by
	// one restores the starts.
	for id := range nn {
		for _, k := range net.KidsOf(network.NodeID(id)) {
			p.ids[p.off[k]] = network.NodeID(id)
			p.off[k]++
		}
	}
	copy(p.off[1:], p.off[:nn])
	p.off[0] = 0
}

// of returns the parent span of a node.
func (p *parentIndex) of(id network.NodeID) []network.NodeID {
	return p.ids[p.off[id]:p.off[id+1]]
}
