package network

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"enframe/internal/event"
)

// appendInternKey appends a vertex's hash-cons identity to buf in the byte
// encoding the builder once interned through a map[string]NodeID: kind,
// payload, and child ids. It is injective over what the builder constructs
// (a ⊗ vertex has one child), so it is the oracle the open-addressed table
// is checked against.
func appendInternKey(buf []byte, kind Kind, arg int32, val *event.Value, kids []NodeID) []byte {
	buf = append(buf, byte(kind))
	switch kind {
	case KVar, KConst, KCmp, KPow:
		buf = binary.AppendVarint(buf, int64(arg))
	case KCondVal:
		buf = append(buf, byte(val.Kind))
		switch val.Kind {
		case event.Scalar:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(val.S))
		case event.Vector:
			for _, x := range val.V {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
		case event.Boolean:
			buf = append(buf, byte(boolArg(val.B)))
		}
	}
	for _, k := range kids {
		buf = binary.AppendVarint(buf, int64(k))
	}
	return buf
}

// specialFloats are the payload bits interning must keep apart: both zeros,
// several NaN payloads (quiet, signalling, negative), infinities and
// subnormals.
var specialFloats = [16]uint64{
	0, 1 << 63, // +0, −0
	math.Float64bits(1), math.Float64bits(-1), math.Float64bits(0.5), math.Float64bits(2),
	0x7ff8000000000001, 0x7ff8000000000000, 0x7ff0000000000001, 0xfff8000000000000,
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	1, 1<<63 | 1, // ±smallest subnormal
	math.Float64bits(math.MaxFloat64), math.Float64bits(1e-300),
}

// vertex is one intern request.
type vertex struct {
	kind Kind
	arg  int32
	val  *event.Value
	kids []NodeID
}

// chainLen is the size of the probe-chain pool.
const chainLen = 48

var (
	chainOnce sync.Once
	chain     []vertex
)

// probeChain returns vertices whose records all hash to the last slot of
// every index of up to 1<<16 slots: interned together they form one long
// probe chain that wraps around the end of the index. A third differ only in
// payload, a third only in kids and a third only in ⊗ value bits, so a
// lookup that skipped any part of the record comparison would merge them.
func probeChain() []vertex {
	chainOnce.Do(func() {
		var t table
		t.shift = 64 - 16
		var byFamily [3]int
		for i := int32(0); len(chain) < chainLen; i++ {
			v := event.Num(float64(i))
			for fam, c := range [3]vertex{
				{kind: KVar, arg: i},
				{kind: KAnd, kids: []NodeID{0, NodeID(i)}},
				{kind: KCondVal, val: &v, kids: []NodeID{0}},
			} {
				if byFamily[fam] < chainLen/3 && t.slot(hashRec(c.kind, c.arg, c.val, c.kids)) == 1<<16-1 {
					byFamily[fam]++
					chain = append(chain, c)
				}
			}
		}
	})
	return chain
}

// FuzzIntern drives the builder's intern with a byte-coded sequence of
// vertices and checks that it assigns exactly the ids a map keyed by the
// byte encoding assigns — a hit for every repeat, a fresh dense id for every
// new vertex — and keeps the hash-cons accounting in step.
//
// Encoding, one vertex per op byte: op ≥ 0xf0 interns 4·(op&0xf)+1
// vertices of the probe-chain pool, starting at the pool index of the next
// byte;
// otherwise the kind is op mod 13. KVar, KConst, KCmp and KPow take a signed
// payload byte. A ⊗ vertex takes one child and a value: a mode byte (u,
// scalar, vector of 0–3 components, Boolean) and a byte per float choosing
// from specialFloats, or the Boolean's bit. Other kinds take a child count
// (mod 5) and one byte per child, read modulo the vertices so far. The
// committed corpus (testdata/fuzz/FuzzIntern) seeds signed zeros, NaN
// payloads, vector lengths, Boolean ⊗ values, probe chains and every kind.
func FuzzIntern(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		b := NewBuilder(event.NewSpace(), nil)
		oracle := map[string]NodeID{}
		var key []byte
		var lookups, hits int64
		check := func(kind Kind, arg int32, val *event.Value, kids []NodeID) {
			key = appendInternKey(key[:0], kind, arg, val, kids)
			want, seen := oracle[string(key)]
			if !seen {
				want = NodeID(len(oracle))
				oracle[string(key)] = want
			} else {
				hits++
			}
			lookups++
			if got := b.intern(kind, arg, val, kids); got != want {
				t.Fatalf("intern(%s, %d, %v, %v) = %d, oracle %d", kind, arg, val, kids, got, want)
			}
		}
		// ⊥ and ⊤ first, so every ⊗ vertex has a child to take.
		check(KConst, 0, nil, nil)
		check(KConst, 1, nil, nil)
		float := func() float64 { return math.Float64frombits(specialFloats[next()%16]) }
		var kids []NodeID
		for len(data) > 0 {
			op := next()
			if op >= 0xf0 {
				pool := probeChain()
				start := int(next())
				for j := range 4*int(op&0xf) + 1 {
					v := pool[(start+j)%len(pool)]
					check(v.kind, v.arg, v.val, v.kids)
				}
				continue
			}
			kind := Kind(int(op) % numKinds)
			kid := func() NodeID { return NodeID(int(next()) % len(oracle)) }
			kids = kids[:0]
			switch kind {
			case KVar, KConst, KCmp, KPow:
				arg := int32(int8(next()))
				for range next() % 5 {
					kids = append(kids, kid())
				}
				check(kind, arg, nil, kids)
			case KCondVal:
				kids = append(kids, kid())
				var v event.Value
				switch next() % 4 {
				case 1:
					v = event.Num(float())
				case 2:
					comps := make([]float64, next()%4)
					for i := range comps {
						comps[i] = float()
					}
					v = event.Value{Kind: event.Vector, V: comps}
				case 3:
					v = event.Bool(next()&1 == 1)
				}
				check(kind, 0, &v, kids)
			default:
				for range next() % 5 {
					kids = append(kids, kid())
				}
				check(kind, 0, nil, kids)
			}
		}
		if st := b.Stats(); st.Lookups != lookups || st.Hits != hits || st.Created != int64(len(oracle)) {
			t.Fatalf("stats %d lookups %d hits %d created, oracle %d %d %d",
				st.Lookups, st.Hits, st.Created, lookups, hits, len(oracle))
		}
	})
}

// TestInternProbeChains interns a pool of records that all share the last
// slot of the index, so lookups walk one chain that wraps around the end of
// the index and survives regrowth: every record keeps its id, every repeat
// hits, and a new record at the end of the chain is still created.
func TestInternProbeChains(t *testing.T) {
	pool := probeChain()
	var tb table
	for i, v := range pool[:chainLen-1] {
		if id, created := tb.intern(v.kind, v.arg, v.val, v.kids); !created || id != NodeID(i) {
			t.Fatalf("record %d: id %d created %t", i, id, created)
		}
	}
	if tb.index[0] == 0 {
		t.Fatal("the chain did not wrap around the end of the index")
	}
	// Fillers grow the index twice; the pool still shares its last slot.
	const fillers = 1500
	for arg := range int32(fillers) {
		tb.intern(KPow, arg, nil, nil)
	}
	if len(tb.index) < 4<<minIndexBits {
		t.Fatalf("index has %d slots, want regrowth", len(tb.index))
	}
	for i, v := range pool[:chainLen-1] {
		if id, created := tb.intern(v.kind, v.arg, v.val, v.kids); created || id != NodeID(i) {
			t.Fatalf("record %d after regrowth: id %d created %t", i, id, created)
		}
	}
	last := pool[chainLen-1]
	if id, created := tb.intern(last.kind, last.arg, last.val, last.kids); !created || id != chainLen-1+fillers {
		t.Fatalf("the record after the chain: id %d created %t", id, created)
	}
}

// TestInternConfirmsBits checks the comparison that confirms a probe hit,
// which a lookup only reaches on a hash collision: ⊗ values match only bit
// for bit — −0 is not +0, NaN payloads differ, a vector never matches its
// prefix — and the Boolean ⊗ values stay apart.
func TestInternConfirmsBits(t *testing.T) {
	var vals []event.Value
	for _, bits := range specialFloats {
		x := math.Float64frombits(bits)
		vals = append(vals, event.Num(x), event.Vect([]float64{x}), event.Vect([]float64{x, x}))
	}
	vals = append(vals, event.U, event.Bool(false), event.Bool(true), event.Vect(nil))
	var tb table
	kids := []NodeID{0}
	for i := range vals {
		tb.intern(KCondVal, 0, &vals[i], kids)
	}
	for i := range vals {
		for j := range vals {
			if got := tb.same(NodeID(i), KCondVal, 0, &vals[j], kids); got != (i == j) {
				t.Errorf("record %d (%v) confirms as %v: %t", i, vals[i], vals[j], got)
			}
		}
	}
}
