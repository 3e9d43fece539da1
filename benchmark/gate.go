package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/stream"
	"enframe/internal/worlds"
)

// The correctness gate: every answer the benchmark times is checked against
// an answer obtained another way. Reference answers are computed outside the
// measured window and outside setup_s — they are the benchmark's work, not
// the system's.

// worldMarginals computes the marginal of every element of a two-dimensional
// Boolean program variable by running the deterministic interpreter in every
// possible world — the independent oracle of TESTING.md. Worlds in which the
// same objects exist share one interpreter run.
func worldMarginals(spec core.Spec, matrix string) (map[string]float64, error) {
	prog, err := lang.Parse(spec.Source)
	if err != nil {
		return nil, err
	}
	evs := lineage.Events(spec.Objects)
	memo := map[worlds.PresenceKey][][]bool{}
	truth := map[string]float64{}
	var werr error
	worlds.Enumerate(spec.Space, func(nu event.SliceValuation, pw float64) bool {
		key, present, ok := worlds.KeyOf(evs, nu)
		m, hit := memo[key]
		if !hit || !ok {
			w, err := interp.Run(prog, interp.External{
				Objects:     spec.Objects,
				Present:     present,
				Params:      spec.Params,
				InitIndices: spec.InitIndices,
				Metric:      spec.Metric,
			})
			if err == nil {
				m, err = w.BoolMatrix(matrix)
			}
			if err != nil {
				werr = fmt.Errorf("world %v: %w", nu, err)
				return false
			}
			memo[key] = m
		}
		for i, row := range m {
			for l, b := range row {
				if b {
					truth[fmt.Sprintf("%s[%d][%d]", matrix, i, l)] += pw
				}
			}
		}
		return true
	})
	return truth, werr
}

// checkAgainstWorlds requires an exact run's marginals to equal the
// per-world oracle's within 1e-9.
func checkAgainstWorlds(req server.RunRequest) error {
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		return err
	}
	rep, err := core.RunContext(context.Background(), spec)
	if err != nil {
		return err
	}
	matrix := req.Targets[0][:len(req.Targets[0])-1] // "Centre[" → "Centre"
	want, err := worldMarginals(spec, matrix)
	if err != nil {
		return err
	}
	for _, t := range rep.Result.Targets {
		if math.Abs(t.Lower-want[t.Name]) > 1e-9 || math.Abs(t.Upper-want[t.Name]) > 1e-9 {
			return fmt.Errorf("%s/%s %s: exact [%.12g, %.12g], per-world oracle %.12g",
				req.Program, req.Data.Scheme, t.Name, t.Lower, t.Upper, want[t.Name])
		}
	}
	return nil
}

// checkExactResult is the in-window check of a cold exact run: every target
// is present and its bounds have met, to within rounding, inside [0, 1].
func checkExactResult(res *prob.Result) error {
	if len(res.Targets) == 0 {
		return fmt.Errorf("no targets")
	}
	for _, t := range res.Targets {
		if t.Gap() < 0 || t.Gap() > 1e-9 || t.Lower < -1e-9 || t.Upper > 1+1e-9 {
			return fmt.Errorf("%s: exact bounds [%g, %g] did not meet in [0, 1]", t.Name, t.Lower, t.Upper)
		}
	}
	return nil
}

// hybridEpsilon is compile-hybrid's absolute error ε.
const hybridEpsilon = 0.1

// checkApproxResult is the in-window check of an ε-approximate compilation:
// it ran to the end and every bound is at most 2ε wide.
func checkApproxResult(res *prob.Result) error {
	if res.TimedOut || len(res.Targets) == 0 {
		return fmt.Errorf("timed out or no targets")
	}
	for _, t := range res.Targets {
		if t.Lower < -1e-9 || t.Upper > 1+1e-9 || t.Gap() < 0 || t.Gap() > 2*hybridEpsilon+1e-9 {
			return fmt.Errorf("%s: bounds [%g, %g] break the ε-contract", t.Name, t.Lower, t.Upper)
		}
	}
	return nil
}

// checkContains requires every approximate bound to contain the same
// artifact's exact marginal.
func checkContains(approx, exact *prob.Result) error {
	for i, t := range approx.Targets {
		e := exact.Targets[i]
		if e.Name != t.Name || t.Lower > e.Lower+1e-9 || t.Upper < e.Upper-1e-9 {
			return fmt.Errorf("%s: bounds [%g, %g] miss the exact marginal %s = %g", t.Name, t.Lower, t.Upper, e.Name, e.Lower)
		}
	}
	return nil
}

// runTargets renders a result the way /v1/run and /v1/whatif encode it.
func runTargets(res *prob.Result) []server.RunTarget {
	out := make([]server.RunTarget, len(res.Targets))
	for i, t := range res.Targets {
		out[i] = server.RunTarget{Name: t.Name, Lower: t.Lower, Upper: t.Upper, Estimate: t.Estimate()}
	}
	return out
}

// expectedRunTargets is the byte sequence a correct /v1/run reply to req
// contains: the "targets" member as the server's own types encode the
// in-process result. encoding/json prints float64 in the shortest form that
// round-trips, so equal bytes mean equal bits.
func expectedRunTargets(req server.RunRequest) ([]byte, error) {
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		return nil, err
	}
	rep, err := core.RunContext(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(runTargets(rep.Result))
	if err != nil {
		return nil, err
	}
	return append(append([]byte(`"targets":`), b...), `,"stats":`...), nil
}

// runTargetsOf cuts the "targets" member out of a /v1/run reply.
func runTargetsOf(body []byte) []byte {
	i := bytes.Index(body, []byte(`"targets":`))
	j := bytes.Index(body, []byte(`,"stats":`))
	if i < 0 || j < i {
		return nil
	}
	return body[i : j+len(`,"stats":`)]
}

// whatifArtifact is one hot artifact of whatif-sweep as the benchmark knows
// it in-process: its input variables and, per swept variable, the tail of a
// correct reply.
type whatifArtifact struct {
	base   server.RunRequest
	vars   []string
	points [][]byte
}

// sweepGrid is the uniform grid /v1/whatif evaluates for a steps-point sweep.
func sweepGrid(steps int) []float64 {
	g := make([]float64, steps)
	for i := range g {
		g[i] = float64(i) / float64(steps-1)
	}
	return g
}

// sweepPoints replays a circuit over the grid with one variable's marginal
// swept, as the reply's "points" member lists it.
func sweepPoints(space *event.Space, eval func(probs []float64) (*prob.Result, error), v event.VarID, grid []float64) ([]server.WhatifPoint, error) {
	probs := prob.SpaceProbs(space)
	points := make([]server.WhatifPoint, len(grid))
	for i, p := range grid {
		probs[v] = p
		res, err := eval(probs)
		if err != nil {
			return nil, err
		}
		points[i] = server.WhatifPoint{P: p, Targets: runTargets(res)}
	}
	return points, nil
}

// expectedWhatif computes, for one hot artifact, the reply tail of a sweep
// over each of its input variables.
func expectedWhatif(base server.RunRequest) (*whatifArtifact, error) {
	ctx := context.Background()
	spec, _, err := server.BuildSpec(base)
	if err != nil {
		return nil, err
	}
	art, err := core.PrepareContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	c, _, _, err := art.Circuit(ctx, prob.Options{})
	if err != nil {
		return nil, err
	}
	if !c.Complete() {
		return nil, fmt.Errorf("data seed %d traces an incomplete circuit", base.Data.Seed)
	}
	eval := func(probs []float64) (*prob.Result, error) { return prob.EvalCircuit(c, probs) }
	wa := &whatifArtifact{base: base}
	grid := sweepGrid(whatifSteps)
	for v := 0; v < spec.Space.Len(); v++ {
		points, err := sweepPoints(spec.Space, eval, event.VarID(v), grid)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(points)
		if err != nil {
			return nil, err
		}
		wa.vars = append(wa.vars, spec.Space.Name(event.VarID(v)))
		wa.points = append(wa.points, append(append([]byte(`"points":`), b...), '}'))
	}
	return wa, nil
}

// replayLog recomputes a stream session's final marginals from its
// configuration and delta log alone, on a fresh in-process session and with
// a batching unlike the one the server saw: every delta to a window that has
// retired by the end is dropped, the advances that only admitted such
// windows are applied in bulk, and the rest is applied in one batch per
// advance. Each surviving segment is thereby grounded and traced from
// scratch once, after its last structural delta.
func replayLog(cfg stream.Config, log [][]stream.Delta) ([]stream.Marginal, error) {
	ctx := context.Background()
	total := 0
	for _, batch := range log {
		for _, d := range batch {
			if d.Op == stream.OpAdvance {
				total += d.N
			}
		}
	}
	sess, err := stream.NewSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	flush := func(batch []stream.Delta) error {
		if len(batch) == 0 {
			return nil
		}
		_, err := sess.Apply(ctx, sess.Seq(), batch)
		return err
	}
	oldest := int64(total) // the oldest window still live at the end
	bulk := total - cfg.Segments + 1
	for left := bulk; left > 0; left -= 64 {
		if err := flush([]stream.Delta{{Op: stream.OpAdvance, N: min(left, 64)}}); err != nil {
			return nil, err
		}
	}
	seen := 0
	var pending []stream.Delta
	for _, batch := range log {
		for _, d := range batch {
			switch {
			case d.Op == stream.OpAdvance:
				seen += d.N
				if seen <= bulk {
					continue
				}
				if err := flush(append(pending, d)); err != nil {
					return nil, err
				}
				pending = nil
			case *d.Window >= oldest:
				pending = append(pending, d)
			}
		}
	}
	if err := flush(pending); err != nil {
		return nil, err
	}
	u, err := sess.Query(ctx)
	if err != nil {
		return nil, err
	}
	return u.Marginals, nil
}

// sameMarginals compares two marginal lists bit for bit.
func sameMarginals(got, want []stream.Marginal) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d marginals, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Window != w.Window || g.Name != w.Name ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) {
			return fmt.Errorf("window %d %s: [%v, %v], recomputed from the delta log [%v, %v]",
				g.Window, g.Name, g.Lower, g.Upper, w.Lower, w.Upper)
		}
	}
	return nil
}
