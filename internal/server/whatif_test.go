package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/prob"
)

// postWhatif POSTs a what-if request and decodes the response.
func postWhatif(t *testing.T, client *http.Client, addr string, req WhatifRequest) (int, WhatifResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/whatif: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out WhatifResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, buf.Bytes())
		}
	}
	return resp.StatusCode, out, buf.Bytes()
}

func smallWhatif(seed int64, n int) WhatifRequest {
	return WhatifRequest{
		Program: "kmedoids",
		Data:    DataSpec{N: n, Vars: 5, L: 4, Seed: seed},
		Params:  ParamSpec{K: 2, Iter: 2},
	}
}

// TestWhatifSweepMatchesRun cross-checks the circuit replay against the
// ordinary compile path: every grid point of a what-if sweep must agree
// with a fresh /v1/run whose underlying data carries the swept probability.
// The grid points 0, base, and 1 are checked against direct evaluation at
// the base probability for the base point (which is exact replay of the
// trace and hence byte-comparable) and within tolerance elsewhere.
func TestWhatifSweepMatchesRun(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	// A direct run at the stored probabilities is the reference.
	status, run, _ := postRun(t, client, s.Addr(), smallRequest(1, 8))
	if status != http.StatusOK {
		t.Fatalf("run: status %d", status)
	}

	wreq := smallWhatif(1, 8)
	wreq.Steps = 5
	wreq.Influence = true
	status, wi, raw := postWhatif(t, client, s.Addr(), wreq)
	if status != http.StatusOK {
		t.Fatalf("whatif: status %d\n%s", status, raw)
	}
	if len(wi.Points) != 5 {
		t.Fatalf("got %d points, want 5", len(wi.Points))
	}
	if wi.Var == "" {
		t.Fatal("no swept variable reported")
	}
	if !wi.Circuit.Complete {
		t.Fatal("circuit reported incomplete")
	}
	if wi.Circuit.Nodes <= 0 || wi.Circuit.Events <= 0 {
		t.Fatalf("degenerate circuit info: %+v", wi.Circuit)
	}

	// Sweeping the variable through its stored probability must reproduce
	// the direct run's marginals: request a one-point grid at base_prob.
	wreq2 := smallWhatif(1, 8)
	wreq2.Grid = []float64{wi.BaseProb}
	status, atBase, _ := postWhatif(t, client, s.Addr(), wreq2)
	if status != http.StatusOK {
		t.Fatalf("whatif at base: status %d", status)
	}
	if len(atBase.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(atBase.Points))
	}
	if len(atBase.Points[0].Targets) != len(run.Targets) {
		t.Fatalf("target count: %d vs run's %d", len(atBase.Points[0].Targets), len(run.Targets))
	}
	for i, got := range atBase.Points[0].Targets {
		want := run.Targets[i]
		if got.Name != want.Name ||
			math.Float64bits(got.Lower) != math.Float64bits(want.Lower) ||
			math.Float64bits(got.Upper) != math.Float64bits(want.Upper) {
			t.Errorf("target %s at base prob: whatif [%.17g, %.17g] vs run [%.17g, %.17g]",
				want.Name, got.Lower, got.Upper, want.Lower, want.Upper)
		}
	}

	// Influence sanity: derivative = condTrue − condFalse, probabilities
	// inside [0, 1].
	if len(wi.Influence) != len(run.Targets) {
		t.Fatalf("influence count: %d vs %d targets", len(wi.Influence), len(run.Targets))
	}
	for _, inf := range wi.Influence {
		if inf.CondTrue < 0 || inf.CondTrue > 1 || inf.CondFalse < 0 || inf.CondFalse > 1 {
			t.Errorf("%s: conditionals [%g, %g] outside [0, 1]", inf.Target, inf.CondTrue, inf.CondFalse)
		}
		if math.Abs(inf.Derivative-(inf.CondTrue-inf.CondFalse)) > 1e-15 {
			t.Errorf("%s: derivative %g ≠ condTrue−condFalse %g",
				inf.Target, inf.Derivative, inf.CondTrue-inf.CondFalse)
		}
	}
}

// TestWhatifCircuitCacheWarm pins the headline serving property: a warm
// sweep performs zero compilations — the second request's circuit comes
// from the artifact memo (circuit.cache.hits), and the whole 32-point
// sweep reports cached=true with no trace cost.
func TestWhatifCircuitCacheWarm(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	status, cold, _ := postWhatif(t, client, s.Addr(), smallWhatif(2, 8))
	if status != http.StatusOK {
		t.Fatalf("cold whatif: status %d", status)
	}
	if cold.Circuit.Cached {
		t.Fatal("cold request reported a cached circuit")
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold request: artifact cache %q, want miss", cold.Cache)
	}

	status, warm, _ := postWhatif(t, client, s.Addr(), smallWhatif(2, 8))
	if status != http.StatusOK {
		t.Fatalf("warm whatif: status %d", status)
	}
	if !warm.Circuit.Cached {
		t.Fatal("warm request recompiled the circuit")
	}
	if warm.Cache != "hit" {
		t.Fatalf("warm request: artifact cache %q, want hit", warm.Cache)
	}
	if warm.Circuit.TraceMs != 0 {
		t.Errorf("warm request reported trace cost %g ms", warm.Circuit.TraceMs)
	}
	if hits, misses := counterValue(s, "circuit.cache.hits"), counterValue(s, "circuit.cache.misses"); hits != 1 || misses != 1 {
		t.Errorf("circuit cache counters: hits=%d misses=%d, want 1/1", hits, misses)
	}
	// Both sweeps replay the identical circuit at identical grids.
	if len(warm.Points) != len(cold.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(warm.Points), len(cold.Points))
	}
	for i, wp := range warm.Points {
		cp := cold.Points[i]
		for j, wt := range wp.Targets {
			ct := cp.Targets[j]
			if math.Float64bits(wt.Lower) != math.Float64bits(ct.Lower) ||
				math.Float64bits(wt.Upper) != math.Float64bits(ct.Upper) {
				t.Fatalf("point %d target %s: warm replay diverged from cold", i, wt.Name)
			}
		}
	}
}

// TestWhatifValidation exercises the 400 contract.
func TestWhatifValidation(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	for name, req := range map[string]WhatifRequest{
		"grid and steps": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.Grid = []float64{0.5}
			r.Steps = 8
			return r
		}(),
		"grid out of range": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.Grid = []float64{1.5}
			return r
		}(),
		"too few steps": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.Steps = 1
			return r
		}(),
		"too many steps": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.Steps = maxWhatifPoints + 1
			return r
		}(),
		"unknown variable": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.Var = "no-such-var"
			r.Steps = 2
			return r
		}(),
		"negative timeout": func() WhatifRequest {
			r := smallWhatif(1, 8)
			r.TimeoutMs = -1
			return r
		}(),
	} {
		status, _, raw := postWhatif(t, client, s.Addr(), req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", name, status, raw)
		}
	}

	// Method contract.
	resp, err := client.Get("http://" + s.Addr() + "/v1/whatif")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestWhatifReplyMatchesPointwiseReplay holds the one-pass sweep reply to
// what a point-by-point replay encodes: for uniform and explicit grids
// (repeats, the extremes, one point), with and without influence, and for
// every variable of a benchmark-shaped artifact, the reply's "points"
// member is byte for byte encoding/json's rendering of prob.EvalCircuit at
// each grid point, and the influence block carries the same bits as
// replays at 1 and 0.
func TestWhatifReplyMatchesPointwiseReplay(t *testing.T) {
	s := New(Config{})
	base := WhatifRequest{
		Program: "kmedoids",
		Data:    DataSpec{N: 24, Vars: 10, Seed: 3},
		Params:  ParamSpec{K: 2, Iter: 3},
	}
	spec, _, err := BuildSpec(base.RunRequest())
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _, err := art.Circuit(context.Background(), prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	estimates := func(probs []float64) []float64 {
		res, err := prob.EvalCircuit(c, probs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.Targets))
		for i, tb := range res.Targets {
			out[i] = tb.Estimate()
		}
		return out
	}
	for _, shape := range []struct {
		steps     int
		grid      []float64
		influence bool
	}{
		{steps: 32}, {steps: 2, influence: true}, {steps: 256},
		{grid: []float64{0.3, 0.3, 0, 1, 0.3, 1, 0}, influence: true}, {grid: []float64{1}},
	} {
		for v := 0; v < spec.Space.Len(); v++ {
			req := base
			req.Var, req.Steps, req.Grid, req.Influence = spec.Space.Name(event.VarID(v)), shape.steps, shape.grid, shape.influence
			rec := serveReq(s, http.MethodPost, "/v1/whatif", mustJSON(req), "")
			if rec.Code != http.StatusOK {
				t.Fatalf("%+v: status %d\n%s", shape, rec.Code, rec.Body)
			}
			grid, err := req.grid()
			if err != nil {
				t.Fatal(err)
			}
			probs := prob.SpaceProbs(spec.Space)
			var points []WhatifPoint
			for _, p := range grid {
				probs[v] = p
				res, err := prob.EvalCircuit(c, probs)
				if err != nil {
					t.Fatal(err)
				}
				pt := WhatifPoint{P: p}
				for _, tb := range res.Targets {
					pt.Targets = append(pt.Targets, RunTarget{Name: tb.Name, Lower: tb.Lower, Upper: tb.Upper, Estimate: tb.Estimate()})
				}
				points = append(points, pt)
			}
			var got struct {
				Points    json.RawMessage   `json:"points"`
				Influence []TargetInfluence `json:"influence"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if want := mustJSON(points); !bytes.Equal(got.Points, want) {
				t.Fatalf("var %d, %+v: points differ from the pointwise replay:\n got %s\nwant %s", v, shape, got.Points, want)
			}
			if !shape.influence {
				if got.Influence != nil {
					t.Fatalf("influence reported unasked")
				}
				continue
			}
			probs[v] = 1
			condTrue := estimates(probs)
			probs[v] = 0
			condFalse := estimates(probs)
			for i, inf := range got.Influence {
				if math.Float64bits(inf.CondTrue) != math.Float64bits(condTrue[i]) ||
					math.Float64bits(inf.CondFalse) != math.Float64bits(condFalse[i]) ||
					math.Float64bits(inf.Derivative) != math.Float64bits(condTrue[i]-condFalse[i]) {
					t.Fatalf("var %d, %s: influence %+v, pointwise %v / %v", v, inf.Target, inf, condTrue[i], condFalse[i])
				}
			}
		}
	}
}

// TestDataErrorAnswers400AndIsNotCached: the served routes validate and key
// a request before generating its data, so invalid generated data surfaces
// only on the artifact cache's miss path. It must still answer 400, on every
// route that prepares an artifact, and leave nothing in the cache.
func TestDataErrorAnswers400AndIsNotCached(t *testing.T) {
	s := New(Config{})
	run := smallRequest(1, 6)
	run.Data.Certain = 2 // lineage rejects a certain fraction outside [0, 1]
	whatif := smallWhatif(1, 6)
	whatif.Data.Certain = 2
	for _, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/run", mustJSON(run)}, {"/v1/whatif", mustJSON(whatif)}, {"/v1/warm", mustJSON(run)}, {"/v1/run", mustJSON(run)},
	} {
		if rec := serveReq(s, http.MethodPost, tc.path, tc.body, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400\n%s", tc.path, rec.Code, rec.Body)
		}
	}
	if n := gaugeValue(s, "server.cache.size"); n != 0 {
		t.Errorf("%g artifacts cached after data errors, want 0", n)
	}
	if misses := counterValue(s, "server.cache.misses"); misses != 4 {
		t.Errorf("server.cache.misses = %d, want 4: every data error is a fresh miss", misses)
	}
}
