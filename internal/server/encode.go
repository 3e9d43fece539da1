package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"enframe/internal/prob"
)

// The hot replies are dominated by one member — /v1/run's "targets", and
// /v1/whatif's "points" matrix of grid × targets — that reflection-driven
// encoding/json spends most of the handler on. These replies are therefore
// encoded in two parts: the envelope by encoding/json with that member left
// nil, and the member by the append encoder below, spliced in where the
// envelope says null. The bytes are those encoding/json would have produced
// (encode_test.go holds the encoder to that), so clients and the benchmark's
// byte-for-byte checks cannot tell the difference.

// appendFloat appends f the way encoding/json encodes a float64: shortest
// round-trip digits, exponent form only below 1e-6 and from 1e21, and a
// two-digit negative exponent trimmed to one (1e-07 → 1e-7). f must be
// finite, as every probability is.
func appendFloat(b []byte, f float64) []byte {
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
// []RunTarget they denote (name, lower, upper, estimate). A point interval —
// most targets of an exact reply — formats its float once and copies it.
func appendTargets(b []byte, ts []prob.TargetBound) []byte {
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendString(b, t.Name)
		b = append(b, `,"lower":`...)
		from := len(b)
		b = appendFloat(b, t.Lower)
		to := len(b)
		est := t.Estimate()
		if math.Float64bits(t.Lower) == math.Float64bits(t.Upper) &&
			math.Float64bits(t.Lower) == math.Float64bits(est) {
			b = append(b, `,"upper":`...)
			b = append(b, b[from:to]...)
			b = append(b, `,"estimate":`...)
			b = append(b, b[from:to]...)
		} else {
			b = append(b, `,"upper":`...)
			b = appendFloat(b, t.Upper)
			b = append(b, `,"estimate":`...)
			b = appendFloat(b, est)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendPoints appends the array encoding/json produces for the
// []WhatifPoint pairing grid[i] with rows[i].
func appendPoints(b []byte, grid []float64, rows [][]prob.TargetBound) []byte {
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"p":`...)
		b = appendFloat(b, grid[i])
		b = append(b, `,"targets":`...)
		b = appendTargets(b, row)
		b = append(b, '}')
	}
	return append(b, ']')
}

// replyBufs pools the buffers spliced replies are assembled in; a 32 × 48
// what-if reply is ≈150 KB.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeSpliced answers 200 with envelope as writeJSON would encode it,
// except that the member named member — which the caller left nil and which
// is not tagged omitempty, so the envelope says null — carries what fill
// appends.
func writeSpliced(w http.ResponseWriter, envelope any, member string, fill func([]byte) []byte) {
	env, err := json.Marshal(envelope)
	null := []byte(`"` + member + `":null`)
	at := bytes.Index(env, null)
	if err != nil || at < 0 {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	bp := replyBufs.Get().(*[]byte)
	b := append((*bp)[:0], env[:at+len(null)-len("null")]...)
	b = fill(b)
	b = append(b, env[at+len(null):]...)
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // a failed write is the client's disconnect
	*bp = b
	replyBufs.Put(bp)
}
