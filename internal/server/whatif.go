package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"enframe/internal/event"
	"enframe/internal/prob"
)

// WhatifRequest is the body of POST /v1/whatif: sweep one input variable's
// marginal probability over a grid and report every target's bounds at each
// grid point, answered by replaying the artifact's cached arithmetic
// circuit — the whole sweep costs at most one compilation (a cold trace)
// and N evaluations. Program, data, params, and targets identify the
// artifact exactly as in /v1/run.
type WhatifRequest struct {
	Program string    `json:"program,omitempty"`
	Source  string    `json:"source,omitempty"`
	Data    DataSpec  `json:"data"`
	Params  ParamSpec `json:"params"`
	Targets []string  `json:"targets,omitempty"`
	// Var names the swept input variable (e.g. "x3"); empty sweeps the
	// first variable of the compilation order — the most influential one
	// under the fanout heuristic.
	Var string `json:"var,omitempty"`
	// Grid lists explicit probabilities to evaluate, each in [0, 1].
	// Mutually exclusive with Steps.
	Grid []float64 `json:"grid,omitempty"`
	// Steps asks for a uniform grid of that many points spanning [0, 1]
	// inclusive; default 32, maximum 256.
	Steps int `json:"steps,omitempty"`
	// Influence additionally reports each target's conditional
	// probabilities at the swept variable's extremes and the derivative
	// ∂Pr[target]/∂p — the VarInfluence decomposition, batched over all
	// targets from two extra evaluations.
	Influence bool `json:"influence,omitempty"`
	// Order selects the variable-order heuristic, as in /v1/run.
	Order     string `json:"order,omitempty"`
	TimeoutMs int    `json:"timeout_ms,omitempty"`
	// Tenant identifies the caller for quota enforcement, as in /v1/run.
	Tenant string `json:"tenant,omitempty"`
}

// WhatifResponse is the body of a successful POST /v1/whatif.
type WhatifResponse struct {
	// Var is the swept variable; BaseProb its marginal in the stored data.
	Var      string  `json:"var"`
	BaseProb float64 `json:"base_prob"`
	// Cache is the artifact cache disposition ("hit"/"miss"), as in /v1/run.
	Cache   string        `json:"cache"`
	Circuit CircuitInfo   `json:"circuit"`
	Points  []WhatifPoint `json:"points"`
	// Influence is present when the request set "influence": true.
	Influence []TargetInfluence `json:"influence,omitempty"`
}

// CircuitInfo describes the circuit that served the sweep.
type CircuitInfo struct {
	Nodes  int `json:"nodes"`
	Events int `json:"events"`
	// Cached is true when the circuit came from the artifact's memo: the
	// request paid zero compilations.
	Cached   bool    `json:"cached"`
	Complete bool    `json:"complete"`
	TraceMs  float64 `json:"trace_ms,omitempty"`
	EvalMs   float64 `json:"eval_ms"`
}

// WhatifPoint is the per-target bounds at one grid probability.
type WhatifPoint struct {
	P       float64     `json:"p"`
	Targets []RunTarget `json:"targets"`
}

// TargetInfluence is one target's sensitivity to the swept variable.
type TargetInfluence struct {
	Target     string  `json:"target"`
	CondTrue   float64 `json:"cond_true"`
	CondFalse  float64 `json:"cond_false"`
	Derivative float64 `json:"derivative"`
}

// maxWhatifPoints bounds the sweep grid.
const maxWhatifPoints = 256

// RunRequest strips a what-if request down to the artifact-identifying
// RunRequest used for cache-key derivation and validation; the shard router
// uses it to route what-if traffic by the same artifact key as /v1/run.
func (wr WhatifRequest) RunRequest() RunRequest {
	return RunRequest{
		Program: wr.Program,
		Source:  wr.Source,
		Data:    wr.Data,
		Params:  wr.Params,
		Targets: wr.Targets,
		Order:   wr.Order,
	}.withDefaults()
}

// grid resolves the evaluation grid after validation.
func (wr WhatifRequest) grid() ([]float64, error) {
	if len(wr.Grid) > 0 && wr.Steps > 0 {
		return nil, badRequest("grid and steps are mutually exclusive")
	}
	if len(wr.Grid) > 0 {
		if len(wr.Grid) > maxWhatifPoints {
			return nil, badRequest("grid must list at most %d points (got %d)", maxWhatifPoints, len(wr.Grid))
		}
		for _, p := range wr.Grid {
			if !(p >= 0 && p <= 1) {
				return nil, badRequest("grid probabilities must be in [0, 1] (got %g)", p)
			}
		}
		return wr.Grid, nil
	}
	steps := wr.Steps
	if steps == 0 {
		steps = 32
	}
	if steps < 2 || steps > maxWhatifPoints {
		return nil, badRequest("steps must be in [2, %d] (got %d)", maxWhatifPoints, steps)
	}
	g := make([]float64, steps)
	for i := range g {
		g[i] = float64(i) / float64(steps-1)
	}
	return g, nil
}

// whatifRoute is POST /v1/whatif's validation: a well-formed grid and an
// artifact-identifying request BuildSpec accepts. Its execute step replays
// the grid on the artifact's cached circuit; beyond /v1/run's statuses it
// answers 422 when the trace was pruned (an incomplete circuit cannot
// answer at swept probabilities).
func (s *Server) whatifRoute(req WhatifRequest) (*ticket, error) {
	grid, err := req.grid()
	if err != nil {
		return nil, err
	}
	plan, err := planSpec(req.RunRequest())
	if err != nil {
		return nil, err
	}
	return &ticket{key: plan.key, tenant: req.Tenant, timeoutMs: req.TimeoutMs,
		execute: func(ctx context.Context, info *reqInfo) (func(http.ResponseWriter), error) {
			rb := getReplyBuf()
			if rb.sweep == nil {
				rb.sweep = new(sweepBuf)
			}
			resp, names, cache, err := s.executeWhatif(ctx, rb.sweep, plan, req, grid)
			info.cache = cache.String()
			if err != nil {
				replyBufs.Put(rb)
				return nil, err
			}
			return func(w http.ResponseWriter) {
				writeSpliced(w, rb, resp, "points", func(b []byte) []byte { return rb.sweep.appendPoints(b, len(grid), names) })
			}, nil
		},
	}, nil
}

// executeWhatif resolves the artifact and its circuit through their caches
// and replays the grid — and, for influence, the swept variable's extremes
// — in one pass into sw's lane matrices. The response's Points stay nil:
// whatifRoute's reply encodes them from sw in their place (encode.go). The
// returned names are the circuit's targets.
func (s *Server) executeWhatif(ctx context.Context, sw *sweepBuf, plan specPlan, req WhatifRequest, grid []float64) (*WhatifResponse, []string, cacheOutcome, error) {
	art, cache, err := s.artifactFor(ctx, plan)
	if err != nil {
		return nil, nil, cache, err
	}
	heuristic, _ := prob.ParseOrder(plan.req.Order) // validated by planSpec

	tTrace := time.Now()
	c, _, circuitCached, err := s.circuitFor(ctx, art, prob.Options{Heuristic: heuristic})
	traceDur := time.Since(tTrace)
	if err != nil {
		return nil, nil, cache, err
	}
	if !c.Complete() {
		return nil, nil, cache, fmt.Errorf("circuit trace was pruned (timed out or converged early); what-if replay needs a complete circuit")
	}

	// Resolve the swept variable: by name, or default to the head of the
	// compilation order (the most influential variable under the heuristic).
	sp := art.Net.Space
	xv := event.VarID(-1)
	if req.Var == "" {
		order := art.Order(heuristic)
		if len(order) == 0 {
			return nil, nil, cache, badRequest("network has no variables to sweep")
		}
		xv = order[0]
	} else {
		for i := 0; i < sp.Len(); i++ {
			if sp.Name(event.VarID(i)) == req.Var {
				xv = event.VarID(i)
				break
			}
		}
		if xv < 0 {
			return nil, nil, cache, badRequest("no input variable named %q", req.Var)
		}
	}

	probs := prob.SpaceProbs(sp)
	resp := &WhatifResponse{
		Var:      sp.Name(xv),
		BaseProb: probs[xv],
		Cache:    cache.String(),
		Circuit: CircuitInfo{
			Nodes:    c.Nodes(),
			Events:   c.Events(),
			Cached:   circuitCached,
			Complete: c.Complete(),
		},
	}
	if !circuitCached {
		resp.Circuit.TraceMs = ms(traceDur)
	}

	sw.lanes = append(sw.lanes[:0], grid...)
	if req.Influence {
		sw.lanes = append(sw.lanes, 1, 0) // the conditionals on the swept variable
	}
	lanes, names := len(sw.lanes), c.Targets()
	sw.lo = growFloats(sw.lo, len(names)*lanes)
	sw.hi = growFloats(sw.hi, len(names)*lanes)
	sw.scratch = growFloats(sw.scratch, c.SweepScratch(lanes))
	tEval := time.Now()
	err = prob.EvalSweep(c, probs, xv, sw.lanes, sw.lo, sw.hi, sw.scratch)
	d := ms(time.Since(tEval))
	if err != nil {
		return nil, nil, cache, err
	}
	// circuit.eval_ms is per grid point: the sweep's time, spread evenly.
	for range lanes {
		s.hCircuitEval.Observe(d / float64(lanes))
	}
	resp.Circuit.EvalMs = d
	if req.Influence {
		for t, name := range names {
			estimate := func(j int) float64 {
				return prob.TargetBound{Lower: sw.lo[t*lanes+j], Upper: sw.hi[t*lanes+j]}.Estimate()
			}
			condTrue, condFalse := estimate(lanes-2), estimate(lanes-1)
			resp.Influence = append(resp.Influence, TargetInfluence{
				Target:     name,
				CondTrue:   condTrue,
				CondFalse:  condFalse,
				Derivative: condTrue - condFalse,
			})
		}
	}
	return resp, names, cache, nil
}
