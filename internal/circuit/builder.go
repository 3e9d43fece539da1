package circuit

import "enframe/internal/event"

// Builder accumulates circuit nodes bottom-up with hash-consing: a node
// whose (variable, children, decisions) match an existing node is shared
// rather than stored again. Children must be built before their parent, so
// the tracer adds nodes in post-order; Finish seals the circuit.
type Builder struct {
	c *Circuit
	// buckets maps a node's content hash to the candidate node ids; the
	// full content is compared on lookup, so hash collisions only cost an
	// extra comparison.
	buckets map[uint64][]NodeID
	// noCons disables sharing (every Node call stores a fresh node); the
	// equivalence tests use it to prove consing never changes evaluation.
	noCons bool
	// depths[i] is the number of nodes on the longest path down from node
	// i; Finish keeps only the root's, which sizes EvalSweep's scratch.
	depths []int32
}

// NewBuilder starts an empty circuit over a variable space of numVars
// variables and the given compilation targets (in bound-index order; the
// slice is retained).
func NewBuilder(numVars int, targets []string) *Builder {
	return &Builder{
		c: &Circuit{
			evOff:   []int32{0},
			root:    None,
			targets: targets,
			numVars: numVars,
		},
		buckets: map[uint64][]NodeID{},
	}
}

// DisableConsing makes every Node call store a fresh node, so the circuit is
// the traced tree verbatim. It is the reference for consing invariance in
// TestQuickEvaluatorProperties.
func (b *Builder) DisableConsing() { b.noCons = true }

// Node adds (or shares) a node branching on v with true child hi and false
// child lo, firing evs on entry. A leaf passes v < 0 and None children.
// The evs slice is copied; the caller may reuse its backing array.
func (b *Builder) Node(v event.VarID, hi, lo NodeID, evs []Decision) NodeID {
	h := hashNode(v, hi, lo, evs)
	if !b.noCons {
		for _, id := range b.buckets[h] {
			if b.sameNode(id, v, hi, lo, evs) {
				return id
			}
		}
	}
	c := b.c
	id := NodeID(len(c.vars))
	c.vars = append(c.vars, int32(v))
	c.hi = append(c.hi, hi)
	c.lo = append(c.lo, lo)
	c.evs = append(c.evs, evs...)
	c.evOff = append(c.evOff, int32(len(c.evs)))
	visits, depth := int64(1), int32(0)
	if hi != None {
		visits += c.visits[hi]
		depth = b.depths[hi]
	}
	if lo != None {
		visits += c.visits[lo]
		depth = max(depth, b.depths[lo])
	}
	c.visits = append(c.visits, visits)
	b.depths = append(b.depths, depth+1)
	b.buckets[h] = append(b.buckets[h], id)
	return id
}

// sameNode reports whether stored node id has exactly the given content.
func (b *Builder) sameNode(id NodeID, v event.VarID, hi, lo NodeID, evs []Decision) bool {
	c := b.c
	if c.vars[id] != int32(v) || c.hi[id] != hi || c.lo[id] != lo {
		return false
	}
	got := c.evs[c.evOff[id]:c.evOff[id+1]]
	if len(got) != len(evs) {
		return false
	}
	for i, d := range got {
		if d != evs[i] {
			return false
		}
	}
	return true
}

// Finish seals the circuit with its root and completeness flag and releases
// the builder's cons table. The builder must not be used afterwards.
func (b *Builder) Finish(root NodeID, complete bool) *Circuit {
	c := b.c
	c.root = root
	c.complete = complete
	if root != None {
		c.depth = int(b.depths[root])
	}
	b.c = nil
	b.buckets = nil
	b.depths = nil
	return c
}

// FNV-1a folded word-wise over the node content.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashNode(v event.VarID, hi, lo NodeID, evs []Decision) uint64 {
	h := uint64(fnvOffset64)
	mix := func(x uint64) uint64 {
		h ^= x
		h *= fnvPrime64
		return h
	}
	mix(uint64(uint32(v)))
	mix(uint64(uint32(hi)))
	mix(uint64(uint32(lo)))
	mix(uint64(len(evs)))
	for _, d := range evs {
		mix(uint64(d))
	}
	return h
}
