package network

import (
	"math"
	"slices"
	"sync"

	"enframe/internal/event"
)

// rec is the construction record of one hash-consed vertex. It holds no
// pointers, so growing the record column is a plain copy the garbage
// collector never scans: kids are kids[off:off+n] of the table's one child
// arena, and a ⊗ node's c-value is vals[arg], the layout Net.Arg and Net.Vals
// use.
type rec struct {
	kind Kind
	arg  int32
	off  int32
	n    int32
}

// table is the hash-cons store: the records, their child arena and ⊗
// payloads, and an open-addressed index over them. An index slot holds a
// record's id plus one (0 is empty); lookups probe linearly from the slot the
// record's hash picks and confirm every candidate against the stored record,
// so a hash collision can never merge two distinct nodes. The ⊗ payload
// column is itself interned: bit-identical c-values (sameBits) share one
// vals entry, found through a second index of the same shape, so the many ⊗
// nodes that carry one distance under different guards store it once. The
// Builder interns through it.
//
// A table outlives its builder: Build empties it and returns it to
// tablePool, and the next NewBuilder takes it from there, so a process that
// builds network after network interns into storage already grown to the
// size its networks need instead of regrowing and rehashing it from empty
// each time. Ids depend only on the order of creation, never on the index
// size, so a recycled table yields the ids and hit counts a fresh one does.
type table struct {
	recs  []rec
	kids  []NodeID
	vals  []event.Value
	index []NodeID
	// shift turns a hash into a slot: hash·φ >> shift, for a
	// 1<<(64−shift)-slot index.
	shift uint
	// valIndex and valShift index vals by bits, as index and shift do recs.
	valIndex []int32
	valShift uint
	// remap, valRemap and stack are Build's scratch (liveIDs).
	remap    []NodeID
	valRemap []int32
	stack    []NodeID
}

// minIndexBits sizes a fresh index; it doubles whenever it is half full.
const minIndexBits = 10

// tablePool holds emptied tables between builds. A sync.Pool rather than a
// pinned spare, so the garbage collector reclaims the tables once a process
// stops building networks.
var tablePool sync.Pool

// getTable returns an empty table, recycled when the pool has one.
func getTable() *table {
	if t, _ := tablePool.Get().(*table); t != nil {
		return t
	}
	return new(table)
}

// putTable empties t and returns it to the pool.
func putTable(t *table) {
	t.reset()
	tablePool.Put(t)
}

// reset empties the table, keeping every column's capacity and each index's
// size. The c-values are zeroed so an emptied table keeps no built network's
// vectors alive.
func (t *table) reset() {
	t.recs = t.recs[:0]
	t.kids = t.kids[:0]
	clear(t.vals)
	t.vals = t.vals[:0]
	clear(t.index)
	clear(t.valIndex)
}

// kidsOf returns a record's child span.
func (t *table) kidsOf(id NodeID) []NodeID {
	r := &t.recs[id]
	return t.kids[r.off : r.off+r.n]
}

// intern returns the id of the vertex (kind, arg, kids), creating it on a
// miss; created reports the miss. A KCondVal vertex is identified by *val
// instead of arg, and on creation its arg becomes the index of *val's entry
// in vals (internVal); val is nil for every other kind. kids is only read: it
// may alias scratch space, and is copied into the arena when the vertex is
// new.
func (t *table) intern(kind Kind, arg int32, val *event.Value, kids []NodeID) (id NodeID, created bool) {
	if 2*(len(t.recs)+1) > len(t.index) {
		t.grow()
	}
	mask := len(t.index) - 1
	i := t.slot(hashRec(kind, arg, val, kids))
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if cand := t.index[i] - 1; t.same(cand, kind, arg, val, kids) {
			return cand, false
		}
	}
	if val != nil {
		arg = t.internVal(val)
	}
	id = NodeID(len(t.recs))
	t.recs = append(t.recs, rec{kind: kind, arg: arg, off: int32(len(t.kids)), n: int32(len(kids))})
	t.kids = append(t.kids, kids...)
	t.index[i] = id + 1
	return id, true
}

// internVal returns the index of the vals entry bit-identical to *val,
// appending a copy of *val on a miss. val may point into vals.
func (t *table) internVal(val *event.Value) int32 {
	if 2*(len(t.vals)+1) > len(t.valIndex) {
		t.growVals()
	}
	mask := len(t.valIndex) - 1
	i := slotOf(hashVal(0, val), t.valShift)
	for ; t.valIndex[i] != 0; i = (i + 1) & mask {
		if cand := t.valIndex[i] - 1; sameBits(&t.vals[cand], val) {
			return cand
		}
	}
	t.vals = append(t.vals, *val)
	t.valIndex[i] = int32(len(t.vals))
	return int32(len(t.vals) - 1)
}

// same reports whether record id is the vertex (kind, arg, val, kids).
func (t *table) same(id NodeID, kind Kind, arg int32, val *event.Value, kids []NodeID) bool {
	r := &t.recs[id]
	if r.kind != kind || int(r.n) != len(kids) {
		return false
	}
	if val != nil {
		if !sameBits(&t.vals[r.arg], val) {
			return false
		}
	} else if r.arg != arg {
		return false
	}
	return slices.Equal(t.kids[r.off:r.off+r.n], kids)
}

// slot maps a record hash to its home slot in index.
func (t *table) slot(h uint64) int { return slotOf(h, t.shift) }

// slotOf maps a hash to its home slot in a 1<<(64−shift)-slot index
// (Fibonacci hashing: the product's top bits depend on every bit of h).
func slotOf(h uint64, shift uint) int { return int((h * 0x9e3779b97f4a7c15) >> shift) }

// growBits is the size exponent of an index grown from one of the given
// number of slots under shift: double it, or minIndexBits for the first one.
func growBits(slots int, shift uint) uint {
	if slots > 0 {
		return 64 - shift + 1
	}
	return minIndexBits
}

// grow doubles the index (or allocates the first one) and re-slots every
// record.
func (t *table) grow() {
	bits := growBits(len(t.index), t.shift)
	t.index = make([]NodeID, 1<<bits)
	t.shift = 64 - bits
	mask := len(t.index) - 1
	for id := range t.recs {
		r := &t.recs[id]
		var val *event.Value
		if r.kind == KCondVal {
			val = &t.vals[r.arg]
		}
		i := t.slot(hashRec(r.kind, r.arg, val, t.kids[r.off:r.off+r.n]))
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = NodeID(id) + 1
	}
}

// growVals doubles the value index (or allocates the first one) and
// re-slots every value.
func (t *table) growVals() {
	bits := growBits(len(t.valIndex), t.valShift)
	t.valIndex = make([]int32, 1<<bits)
	t.valShift = 64 - bits
	mask := len(t.valIndex) - 1
	for vi := range t.vals {
		i := slotOf(hashVal(0, &t.vals[vi]), t.valShift)
		for t.valIndex[i] != 0 {
			i = (i + 1) & mask
		}
		t.valIndex[i] = int32(vi) + 1
	}
}

// mix folds one word into a running hash.
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// hashRec hashes a vertex's hash-cons identity: its kind, its payload — arg,
// or for a ⊗ vertex the bits of its c-value — and its child ids, two to a
// word.
func hashRec(kind Kind, arg int32, val *event.Value, kids []NodeID) uint64 {
	h := uint64(kind)
	if val == nil {
		h = mix(h, uint64(uint32(arg)))
	} else {
		h = hashVal(h, val)
	}
	i := 0
	for ; i+1 < len(kids); i += 2 {
		h = mix(h, uint64(uint32(kids[i]))|uint64(kids[i+1])<<32)
	}
	if i < len(kids) {
		h = mix(h, uint64(uint32(kids[i])))
	}
	return h
}

// hashVal folds the bits of a c-value — its kind and the fields the kind
// uses — into h.
func hashVal(h uint64, val *event.Value) uint64 {
	h = mix(h, uint64(val.Kind))
	switch val.Kind {
	case event.Scalar:
		h = mix(h, math.Float64bits(val.S))
	case event.Vector:
		h = mix(h, uint64(len(val.V)))
		for _, x := range val.V {
			h = mix(h, math.Float64bits(x))
		}
	case event.Boolean:
		h = mix(h, uint64(boolArg(val.B)))
	}
	return h
}

// sameBits reports whether two c-values are identical bit for bit in the
// fields their kind uses — the identity hash-consing gives ⊗ payloads, so
// −0 and +0, or two NaN payloads, stay apart.
func sameBits(x, y *event.Value) bool {
	if x.Kind != y.Kind {
		return false
	}
	switch x.Kind {
	case event.Scalar:
		return math.Float64bits(x.S) == math.Float64bits(y.S)
	case event.Vector:
		return slices.EqualFunc(x.V, y.V, func(p, q float64) bool {
			return math.Float64bits(p) == math.Float64bits(q)
		})
	case event.Boolean:
		return x.B == y.B
	}
	return true
}
