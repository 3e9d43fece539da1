package prob

// bitset is a packed array of single-bit flags in uint64 words. The
// compilation core keeps the three-valued Boolean masks of the event network
// in two of these planes (decided-true and decided-false), so a node's truth
// value costs 2 bits and snapshot and restore at distributed fork markers
// are word-wide memmoves.
type bitset []uint64

// bitsetWords returns the word count covering n bits.
func bitsetWords(n int) int { return (n + 63) >> 6 }

// get reports bit i.
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// set sets bit i.
func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// clear clears bit i.
func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }

// setTo writes bit i to v.
func (b bitset) setTo(i int32, v bool) {
	if v {
		b.set(i)
	} else {
		b.clear(i)
	}
}

// Three-valued Boolean masks, the encoding shared by the compilation core and
// the reference evaluator.
const (
	bUnknown int8 = iota
	bTrue
	bFalse
)

func boolMask(b bool) int8 {
	if b {
		return bTrue
	}
	return bFalse
}

func negMask(v int8) int8 {
	switch v {
	case bTrue:
		return bFalse
	case bFalse:
		return bTrue
	}
	return bUnknown
}

// Three-valued truth values over two planes: a node is true iff its bit is
// set in the decided-true plane, false iff set in the decided-false plane,
// unknown otherwise. At most one plane holds the bit; bval3 folds the pair
// into the int8 encoding above.
func bval3(decT, decF bitset, id int32) int8 {
	w, m := id>>6, uint64(1)<<(uint(id)&63)
	if decT[w]&m != 0 {
		return bTrue
	}
	if decF[w]&m != 0 {
		return bFalse
	}
	return bUnknown
}

// setBval3 writes the three-valued truth value v into the planes.
func setBval3(decT, decF bitset, id int32, v int8) {
	w, m := id>>6, uint64(1)<<(uint(id)&63)
	decT[w] &^= m
	decF[w] &^= m
	switch v {
	case bTrue:
		decT[w] |= m
	case bFalse:
		decF[w] |= m
	}
}
