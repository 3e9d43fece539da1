package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"enframe/internal/prob"
	"enframe/internal/stream"
)

// The hot replies are dominated by one member — /v1/run's "targets", and
// /v1/whatif's "points" matrix of grid × targets — that reflection-driven
// encoding/json spends most of the handler on. These replies are therefore
// encoded in two parts: the envelope by encoding/json with that member left
// nil, and the member by the append encoder below, spliced in where the
// envelope says null. A /v1/stream reply is small besides its marginals, so
// the append encoder writes all of it. The bytes are those encoding/json
// would have produced (encode_test.go holds the encoder to that), so clients
// and the benchmark's byte-for-byte checks cannot tell the difference.

// appendFloat appends f the way encoding/json encodes a float64: shortest
// round-trip digits, exponent form only below 1e-6 and from 1e21, and a
// two-digit negative exponent trimmed to one (1e-07 → 1e-7). f must be
// finite, as every probability is.
func appendFloat(b []byte, f float64) []byte {
	switch math.Float64bits(f) {
	case 0:
		return append(b, '0')
	case oneBits:
		return append(b, '1')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// oneBits is math.Float64bits(1).
const oneBits = 0x3ff0000000000000

// plainASCII marks the bytes encoding/json copies into a string unescaped:
// printable ASCII except the quote, the backslash and the HTML-sensitive
// <, >, &.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range []byte(`"\<>&`) {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string. Plain ASCII — every target name
// the translator produces — is copied between quotes; anything else is left
// to encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainASCII[s[i]] {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTargets appends ts as the array encoding/json produces for the
// []RunTarget they denote (name, lower, upper, estimate).
func appendTargets(b []byte, ts []prob.TargetBound) []byte {
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendString(b, t.Name)
		b = append(b, `,"lower":`...)
		b = appendBound(b, nil, t.Lower, t.Upper)
	}
	return append(b, ']')
}

// appendBound appends a target's lower bound, then its upper and estimate
// members, and closes the target's object; m, when not nil, memoizes the
// formatting. A point interval — most targets of an exact reply — formats
// its float once and copies it.
func appendBound(b []byte, m *floatMemo, lo, hi float64) []byte {
	est := prob.TargetBound{Lower: lo, Upper: hi}.Estimate()
	from := len(b)
	b = m.append(b, lo)
	to := len(b)
	if math.Float64bits(lo) == math.Float64bits(hi) && math.Float64bits(lo) == math.Float64bits(est) {
		b = append(b, `,"upper":`...)
		b = append(b, b[from:to]...)
		b = append(b, `,"estimate":`...)
		b = append(b, b[from:to]...)
	} else {
		b = append(b, `,"upper":`...)
		b = m.append(b, hi)
		b = append(b, `,"estimate":`...)
		b = m.append(b, est)
	}
	return append(b, '}')
}

// floatMemo remembers where in the reply recently formatted floats' bytes
// are, so that a value written again is copied, not formatted again: most
// bounds of a sweep reply repeat a value written at an earlier point, though
// rarely the same target's at the previous point. It is direct-mapped by
// the value's bits — a value evicts the one sharing its slot — and holds
// offsets into the reply being assembled, so it is reset per reply.
type floatMemo [memoSlots]memoEntry

// memoBits sizes the memo: a benchmark-shaped 32-point reply writes 500–800
// distinct values other than 0 and 1, which 4,096 slots hold with few
// evictions.
const (
	memoBits  = 12
	memoSlots = 1 << memoBits
)

type memoEntry struct {
	bits uint64
	off  uint32
	n    uint32 // zero marks an empty slot
}

// append appends f as appendFloat does, copying the bytes from b when the
// memo holds f. A nil memo formats every value.
func (m *floatMemo) append(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if m == nil || bits == 0 || bits == oneBits {
		return appendFloat(b, f)
	}
	e := &m[(bits*0x9e3779b97f4a7c15)>>(64-memoBits)]
	if e.n != 0 && e.bits == bits {
		return append(b, b[e.off:e.off+e.n]...)
	}
	off := len(b)
	b = appendFloat(b, f)
	*e = memoEntry{bits: bits, off: uint32(off), n: uint32(len(b) - off)}
	return b
}

// sweepBuf is the pooled storage of one what-if reply besides its bytes:
// the replayed lanes' bound matrices and scratch, and the encoder's memo.
type sweepBuf struct {
	// lanes are the grid points, then the influence extremes 1 and 0 when
	// the request asked for them; lo and hi are prob.EvalSweep's clamped
	// target-major lane matrices over lanes.
	lanes, lo, hi, scratch []float64
	memo                   floatMemo
	// prefix[t] locates target t's `{"name":…,"lower":` in the reply, as
	// written at the first point and copied at every later one.
	prefix []span
}

type span struct{ off, n uint32 }

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// appendPoints appends the array encoding/json produces for the
// []WhatifPoint of the sweep's first points lanes: each pairs its grid
// probability with every target's bounds (name, lower, upper, estimate),
// read from the lane matrices.
func (sw *sweepBuf) appendPoints(b []byte, points int, names []string) []byte {
	clear(sw.memo[:])
	sw.prefix = sw.prefix[:0]
	stride := len(sw.lanes)
	b = append(b, '[')
	for j := 0; j < points; j++ {
		if j > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":`...)
		b = sw.memo.append(b, sw.lanes[j])
		b = append(b, `,"targets":[`...)
		for t, name := range names {
			if t > 0 {
				b = append(b, ',')
			}
			if j == 0 {
				off := len(b)
				b = append(b, `{"name":`...)
				b = appendString(b, name)
				b = append(b, `,"lower":`...)
				sw.prefix = append(sw.prefix, span{uint32(off), uint32(len(b) - off)})
			} else {
				p := sw.prefix[t]
				b = append(b, b[p.off:p.off+p.n]...)
			}
			lo, hi := sw.lo[t*stride+j], sw.hi[t*stride+j]
			b = appendBound(b, &sw.memo, lo, hi)
		}
		b = append(b, "]}"...)
	}
	return append(b, ']')
}

// replyBuf is the pooled storage of one spliced reply: its bytes, and the
// sweep state a what-if reply is computed and encoded from — allocated by
// the first what-if reply the buffer serves, so /v1/run's buffers do not
// carry the memo.
type replyBuf struct {
	b     []byte
	sweep *sweepBuf
}

// replyBufs pools reply storage; a 32 × 48 what-if reply is ≈150 KB.
var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

func getReplyBuf() *replyBuf { return replyBufs.Get().(*replyBuf) }

// writeSpliced answers 200 with envelope as writeJSON would encode it,
// except that the member named member — which the caller left nil and which
// is not tagged omitempty, so the envelope says null — carries what fill
// appends. The reply is assembled in rb, which returns to the pool.
func writeSpliced(w http.ResponseWriter, rb *replyBuf, envelope any, member string, fill func([]byte) []byte) {
	env, err := json.Marshal(envelope)
	null := []byte(`"` + member + `":null`)
	at := bytes.Index(env, null)
	if err != nil || at < 0 {
		replyBufs.Put(rb)
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	b := append(rb.b[:0], env[:at+len(null)-len("null")]...)
	b = fill(b)
	b = append(b, env[at+len(null):]...)
	writeReply(w, rb, b)
}

// writeStream answers 200 with r as writeJSON would encode it, assembled by
// the append encoder in a pooled buffer.
func writeStream(w http.ResponseWriter, r *StreamResponse) {
	rb := getReplyBuf()
	writeReply(w, rb, appendStreamResponse(rb.b[:0], r))
}

// writeReply answers 200 with the JSON value b, which was assembled in rb's
// bytes, followed by the newline writeJSON ends with; rb returns to the
// pool.
func writeReply(w http.ResponseWriter, rb *replyBuf, b []byte) {
	defer replyBufs.Put(rb)
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write is the client's disconnect
	rb.b = b
}

// appendStreamResponse appends r as encoding/json encodes it, members in
// StreamResponse's field order, empty ones omitted as its tags say.
func appendStreamResponse(b []byte, r *StreamResponse) []byte {
	b = append(b, `{"session_id":`...)
	b = appendString(b, r.SessionID)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	if len(r.Marginals) > 0 {
		b = append(b, `,"marginals":`...)
		b = appendMarginals(b, r.Marginals)
	}
	if r.Stats != nil {
		b = append(b, `,"stats":`...)
		b = appendStreamStats(b, r.Stats)
	}
	if len(r.Windows) > 0 {
		b = append(b, `,"windows":[`...)
		for i, w := range r.Windows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"window":`...)
			b = strconv.AppendInt(b, w.Window, 10)
			b = append(b, `,"vars":`...)
			b = appendStrings(b, w.Vars)
			b = append(b, `,"tuples":`...)
			b = appendInts(b, w.Tuples)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Closed {
		b = append(b, `,"closed":true`...)
	}
	return append(b, '}')
}

// appendMarginals appends ms as the array encoding/json produces for them.
// A point interval formats its float once and copies it.
func appendMarginals(b []byte, ms []stream.Marginal) []byte {
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"window":`...)
		b = strconv.AppendInt(b, m.Window, 10)
		b = append(b, `,"name":`...)
		b = appendString(b, m.Name)
		b = append(b, `,"lower":`...)
		from := len(b)
		b = appendFloat(b, m.Lower)
		to := len(b)
		b = append(b, `,"upper":`...)
		if math.Float64bits(m.Lower) == math.Float64bits(m.Upper) {
			b = append(b, b[from:to]...)
		} else {
			b = appendFloat(b, m.Upper)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendStreamStats appends st as encoding/json encodes a stream.Stats.
func appendStreamStats(b []byte, st *stream.Stats) []byte {
	b = append(b, `{"applied":`...)
	b = strconv.AppendInt(b, int64(st.Applied), 10)
	b = append(b, `,"replayed":`...)
	b = strconv.AppendInt(b, int64(st.Replayed), 10)
	b = append(b, `,"reground":`...)
	b = strconv.AppendInt(b, int64(st.Reground), 10)
	b = append(b, `,"retraced":`...)
	b = strconv.AppendInt(b, int64(st.Retraced), 10)
	b = append(b, `,"reused_circuits":`...)
	b = strconv.AppendInt(b, int64(st.ReusedCircuits), 10)
	b = append(b, `,"ground_ms":`...)
	b = appendFloat(b, st.GroundMs)
	b = append(b, `,"trace_ms":`...)
	b = appendFloat(b, st.TraceMs)
	b = append(b, `,"replay_ms":`...)
	b = appendFloat(b, st.ReplayMs)
	b = append(b, `,"apply_ms":`...)
	b = appendFloat(b, st.ApplyMs)
	return append(b, '}')
}

// appendStrings appends ss as a JSON array of strings; nil is null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendInts appends xs as a JSON array of numbers; nil is null.
func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
