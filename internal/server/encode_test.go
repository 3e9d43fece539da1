package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"enframe/internal/prob"
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
	var (
		grid   []float64
		rows   [][]prob.TargetBound
		points []WhatifPoint
	)
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
		if i < 64 {
			grid, rows = append(grid, f), append(rows, ts)
			points = append(points, WhatifPoint{P: f, Targets: runTargets(ts)})
		}
	}
	grid, rows = append(grid, 1), append(rows, []prob.TargetBound{})
	points = append(points, WhatifPoint{P: 1, Targets: []RunTarget{}})
	want, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendPoints(nil, grid, rows); !bytes.Equal(got, want) {
		t.Fatalf("points differ:\n got %s\nwant %s", got, want)
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
	writeSpliced(got, run, "targets", func(b []byte) []byte { return appendTargets(b, bounds) })
	want := httptest.NewRecorder()
	run.Targets = ts
	writeJSON(want, 200, run)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) || got.Code != 200 {
		t.Errorf("run reply differs (status %d):\n got %s\nwant %s", got.Code, got.Body, want.Body)
	}

	got = httptest.NewRecorder()
	writeSpliced(got, whatif, "points", func(b []byte) []byte {
		return appendPoints(b, []float64{0, 1}, [][]prob.TargetBound{bounds, bounds})
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
