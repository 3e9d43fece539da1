package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"enframe/internal/prob"
	"enframe/internal/stream"
)

// TestAppendEncoderMatchesEncodingJSON is the append encoder's contract: for
// fuzzed floats — the edges of encoding/json's exponent rule, subnormals,
// zeros — and names that need every kind of escape, its bytes equal
// json.Marshal's of the same value.
func TestAppendEncoderMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 1.0 / 3, 0.1 + 0.2,
		1e-6, 9.99e-7, 1e-7, 1.5e-7, 1e-10, 1.25e-300,
		1e20, 1e21, 9.999999999999999e20, 1.7e308, -2.5e-9, -1e21,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 4.9e-324, 2.2250738585072014e-308,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		floats = append(floats,
			rng.Float64(),
			math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|uint64(rng.Intn(0x7ff))<<52), // any finite float
			math.Ldexp(rng.Float64(), rng.Intn(140)-70))
	}
	names := []string{
		"Centre[0][2]", "b0", "", `quo"te`, `back\slash`, "tab\there", "nl\n", "\x00\x1f",
		"<script>&amp;</script>", "π≈3", "line sep ", "bad\xffutf8", "del\x7f", "tilde~",
	}

	// runTargets is the conversion the reply types document: what the
	// append encoder must be indistinguishable from.
	runTargets := func(ts []prob.TargetBound) []RunTarget {
		out := make([]RunTarget, len(ts))
		for i, t := range ts {
			out[i] = RunTarget{Name: t.Name, Lower: t.Lower, Upper: t.Upper, Estimate: t.Estimate()}
		}
		return out
	}
	for i, f := range floats {
		g := floats[(i*7+3)%len(floats)]
		ts := []prob.TargetBound{
			{Name: names[i%len(names)], Lower: f, Upper: f}, // a point interval
			{Name: names[(i+5)%len(names)], Lower: f, Upper: g},
			{Name: "x", Lower: g, Upper: g},
		}
		want, err := json.Marshal(runTargets(ts))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendTargets(nil, ts); !bytes.Equal(got, want) {
			t.Fatalf("targets differ:\n got %s\nwant %s", got, want)
		}
	}
}

// TestAppendPointsMatchesEncodingJSON holds the memoized sweep encoder to
// encoding/json on adversarial rows: the exponent-rule edges, exact 0 and 1,
// long runs of one repeated value, values repeated across targets and
// points, more distinct values than the memo has slots (so slots are
// evicted and reused), names needing escapes, and lanes past the points
// (the influence extremes) that must not be listed. The same buffer encodes
// every case, so a memo entry left from an earlier reply would show.
func TestAppendPointsMatchesEncodingJSON(t *testing.T) {
	edges := []float64{0, 1, 1e-7, 9.99e-7, 1e-6, 1e21, 9.999999999999999e20, 0.5, 1.0 / 3, 5e-324}
	rng := rand.New(rand.NewSource(2))
	random := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return math.Ldexp(rng.Float64(), -rng.Intn(40))
		}
		return rng.Float64()
	}
	cases := map[string]func(points, targets int) (lo, hi []float64){
		"edges": func(points, targets int) (lo, hi []float64) {
			for i := 0; i < points*targets; i++ {
				lo = append(lo, edges[i%len(edges)])
				hi = append(hi, edges[(i*3+1)%len(edges)])
			}
			return lo, hi
		},
		"repeat runs": func(points, targets int) (lo, hi []float64) {
			v := random()
			for i := 0; i < points*targets; i++ {
				if rng.Intn(40) == 0 {
					v = random()
				}
				lo, hi = append(lo, v), append(hi, v)
			}
			return lo, hi
		},
		"distinct": func(points, targets int) (lo, hi []float64) {
			for i := 0; i < points*targets; i++ {
				lo, hi = append(lo, random()), append(hi, random())
			}
			return lo, hi
		},
	}
	names := []string{"Centre[0][2]", `quo"te`, "<b>&", "π≈3", "", "Centre[1][0]"}
	sw := new(sweepBuf)
	for _, name := range []string{"edges", "repeat runs", "distinct", "edges"} {
		for _, shape := range [][3]int{{1, 1, 0}, {32, 6, 0}, {256, 6, 2}, {300, 5, 0}} {
			points, nt, extra := shape[0], shape[1], shape[2]
			lanes := points + extra
			lo, hi := cases[name](lanes, nt)
			sw.lanes, sw.lo, sw.hi = sw.lanes[:0], lo, hi
			for j := 0; j < lanes; j++ {
				sw.lanes = append(sw.lanes, edges[j%len(edges)])
			}
			var want []WhatifPoint
			for j := 0; j < points; j++ {
				pt := WhatifPoint{P: sw.lanes[j], Targets: []RunTarget{}}
				for ti := 0; ti < nt; ti++ {
					tb := prob.TargetBound{Lower: lo[ti*lanes+j], Upper: hi[ti*lanes+j]}
					pt.Targets = append(pt.Targets, RunTarget{Name: names[ti], Lower: tb.Lower, Upper: tb.Upper, Estimate: tb.Estimate()})
				}
				want = append(want, pt)
			}
			wantB, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if got := sw.appendPoints(nil, points, names[:nt]); !bytes.Equal(got, wantB) {
				t.Fatalf("%s, %d points × %d targets: points differ:\n got %s\nwant %s", name, points, nt, got, wantB)
			}
		}
	}
}

// TestWriteSplicedMatchesWriteJSON checks whole replies: the spliced body of
// a run and a what-if response equals writeJSON's of the same value.
func TestWriteSplicedMatchesWriteJSON(t *testing.T) {
	bounds := []prob.TargetBound{{Name: "Centre[0][1]", Lower: 0.25, Upper: 0.25}, {Name: "a<b", Lower: 0, Upper: 1e-9}}
	ts := []RunTarget{{Name: "Centre[0][1]", Lower: 0.25, Upper: 0.25, Estimate: 0.25}, {Name: "a<b", Lower: 0, Upper: 1e-9, Estimate: 5e-10}}
	run := RunResponse{Cache: "hit", ServedFrom: servedCircuit, Strategy: "exact", Workers: 1, Stats: RunStats{Branches: 7}}
	whatif := WhatifResponse{Var: "x1", Cache: "miss", Influence: []TargetInfluence{{Target: "a<b", CondTrue: 1}}}

	got := httptest.NewRecorder()
	writeSpliced(got, getReplyBuf(), run, "targets", func(b []byte) []byte { return appendTargets(b, bounds) })
	want := httptest.NewRecorder()
	run.Targets = ts
	writeJSON(want, 200, run)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Code != 200 {
		t.Errorf("run reply differs (status %d):\n got %s\nwant %s", got.Code, got.Body, want.Body)
	}

	got = httptest.NewRecorder()
	rb := &replyBuf{sweep: new(sweepBuf)}
	rb.sweep.lanes = []float64{0, 1}
	rb.sweep.lo = []float64{0.25, 0.25, 0, 0}
	rb.sweep.hi = []float64{0.25, 0.25, 1e-9, 1e-9}
	writeSpliced(got, rb, whatif, "points", func(b []byte) []byte {
		return rb.sweep.appendPoints(b, 2, []string{"Centre[0][1]", "a<b"})
	})
	want = httptest.NewRecorder()
	whatif.Points = []WhatifPoint{{P: 0, Targets: ts}, {P: 1, Targets: ts}}
	writeJSON(want, 200, whatif)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("what-if reply differs:\n got %s\nwant %s", got.Body, want.Body)
	}
	if ct := got.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestStreamReplyMatchesWriteJSON is the stream encoder's contract: every
// /v1/stream reply shape — push, query and create with windows, close —
// written by writeStream equals writeJSON's bytes, trailing newline
// included. It covers intervals with lower ≠ upper, the exponent-rule
// edges, exact 0 and 1, stats with fractional milliseconds, empty and nil
// members, and client-chosen session ids that need encoding/json's
// escaping.
func TestStreamReplyMatchesWriteJSON(t *testing.T) {
	edges := []float64{0, 1, 0.5, 1.0 / 3, 1e-7, 9.99e-7, 1e-6, 1e21, 9.999999999999999e20, 5e-324, 0.1 + 0.2}
	var marg []stream.Marginal
	for i, lo := range edges {
		marg = append(marg,
			stream.Marginal{Window: int64(i), Name: "Centre[0][1]", Lower: lo, Upper: lo},
			stream.Marginal{Window: int64(i) + 40, Name: "Centre[1][0]", Lower: lo, Upper: edges[(i*3+1)%len(edges)]})
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		lo := math.Ldexp(rng.Float64(), -rng.Intn(40))
		hi := lo
		if rng.Intn(2) == 0 {
			hi = math.Min(1, lo+math.Ldexp(rng.Float64(), -rng.Intn(60)))
		}
		marg = append(marg, stream.Marginal{Window: int64(i % 9), Name: "Centre[1][2]", Lower: lo, Upper: hi})
	}
	stats := &stream.Stats{Applied: 4, Replayed: 3, Reground: 1, Retraced: 1, ReusedCircuits: 2, Full: true,
		DirtyFraction: 0.125, GroundMs: 2.4871, TraceMs: 21.80034, ReplayMs: 0.0371, ApplyMs: 1e-7}
	windows := []StreamWindow{
		{Window: 0, Vars: []string{"x0", "x1", "+v12", `q"v`, "<&>"}, Tuples: []int{0, 1, 2, 12}},
		{Window: 1, Vars: []string{}, Tuples: []int{}},
		{Window: 2},
	}
	var replies []StreamResponse
	for _, id := range []string{"5f3a0c2e9b7d41e6", "bench", "", "a<b", "x&y", `q"t`, "π≈3", "bad\xffutf8", "nl\n"} {
		replies = append(replies,
			StreamResponse{SessionID: id, Seq: 1 << 40, Marginals: marg, Stats: stats},                           // push
			StreamResponse{SessionID: id, Seq: 7, Marginals: marg[:3], Stats: &stream.Stats{}, Windows: windows}, // query, create
			StreamResponse{SessionID: id, Seq: 0, Marginals: []stream.Marginal{}, Windows: []StreamWindow{}},
			StreamResponse{SessionID: id, Closed: true}, // close
		)
	}
	for i := range replies {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeStream(got, &replies[i])
		writeJSON(want, 200, &replies[i])
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Code != want.Code {
			t.Fatalf("reply %d differs (status %d):\n got %s\nwant %s", i, got.Code, got.Body, want.Body)
		}
		if ct := got.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("reply %d: Content-Type = %q", i, ct)
		}
	}
}
