package server

import (
	"time"

	"enframe/internal/core"
	"enframe/internal/obs"
)

// RunResponse is the body of a successful POST /v1/run.
type RunResponse struct {
	// Cache is "hit" when the compiled artifact was reused, "miss" when
	// this request paid for lex/parse/translate/ground.
	Cache string `json:"cache"`
	// ServedFrom says what computed the probabilities: "circuit" — the
	// artifact's memoized circuit, zero compilations by this request;
	// "trace" — this request traced the circuit (the first exact request on
	// an artifact, or one whose trace is incomplete and therefore never
	// memoized); "compile" — an approximate strategy or remote workers.
	ServedFrom string `json:"served_from"`
	// Strategy echoes the request; on the server exact and circuit are the
	// same execution.
	Strategy string  `json:"strategy"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	Workers  int     `json:"workers"`
	// TimedOut reports the soft (anytime) timeout: bounds are partial.
	TimedOut     bool        `json:"timed_out,omitempty"`
	Variables    int         `json:"variables"`
	NetworkNodes int         `json:"network_nodes"`
	Targets      []RunTarget `json:"targets"`
	// Stats are the work counters of the computation that produced Targets.
	// On a "circuit" reply that is the original trace — bit-identical to an
	// exact compile's counters — not work this request did.
	Stats     RunStats   `json:"stats"`
	TimingsMs RunTimings `json:"timings_ms"`
	// Remote reports how the distributed plane served the request; absent
	// for purely local runs.
	Remote *RemoteResponse `json:"remote,omitempty"`
	// Trace is the per-request span tree, present when the request set
	// "trace": true. Remote worker subtrees appear under their ship spans
	// with distinct pid lanes.
	Trace *obs.SpanExport `json:"trace,omitempty"`
}

// RemoteResponse describes the distributed plane's involvement in one run.
type RemoteResponse struct {
	// Workers is the count of live remote workers when the run finished.
	Workers int `json:"workers"`
	// Fallback is true when remote execution was requested but the run was
	// served in-process because the worker plane was unavailable.
	Fallback bool `json:"fallback,omitempty"`
}

// RunTarget is one compilation target's probability interval.
type RunTarget struct {
	Name     string  `json:"name"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	Estimate float64 `json:"estimate"`
}

// RunStats carries the compilation work counters.
type RunStats struct {
	Branches     int64 `json:"branches"`
	Assignments  int64 `json:"assignments"`
	MaskUpdates  int64 `json:"mask_updates"`
	BudgetPrunes int64 `json:"budget_prunes,omitempty"`
	MaxDepth     int64 `json:"max_depth"`
	Jobs         int64 `json:"jobs"`
}

// RunTimings is the per-stage wall-clock breakdown in milliseconds. On a
// cache hit the preparation stages report the original preparation's cost
// (the request itself skipped them). Compile is always what this request
// spent — the trace or compilation it ran, or ≈0 for a circuit-memo lookup —
// and Total is the stages' sum.
type RunTimings struct {
	Lex       float64 `json:"lex"`
	Parse     float64 `json:"parse"`
	Translate float64 `json:"translate"`
	Ground    float64 `json:"ground"`
	Compile   float64 `json:"compile"`
	Total     float64 `json:"total"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// buildResponse fills every member but Targets, which run encodes
// straight from rep.Result.Targets (encode.go).
func buildResponse(req RunRequest, rep *core.Report, hit bool, served string, remote remoteStatus) RunResponse {
	out := RunResponse{
		Cache:        "miss",
		ServedFrom:   served,
		Strategy:     req.Strategy,
		Epsilon:      req.Epsilon,
		Workers:      req.Workers,
		TimedOut:     rep.Result.TimedOut,
		Variables:    rep.Net.Space.Len(),
		NetworkNodes: rep.Net.NumNodes(),
		Stats: RunStats{
			Branches:     rep.Result.Stats.Branches,
			Assignments:  rep.Result.Stats.Assignments,
			MaskUpdates:  rep.Result.Stats.MaskUpdates,
			BudgetPrunes: rep.Result.Stats.BudgetPrunes,
			MaxDepth:     rep.Result.Stats.MaxDepth,
			Jobs:         rep.Result.Stats.Jobs,
		},
		TimingsMs: RunTimings{
			Lex:       ms(rep.Timings.Lex),
			Parse:     ms(rep.Timings.Parse),
			Translate: ms(rep.Timings.Translate),
			Ground:    ms(rep.Timings.Ground),
			Compile:   ms(rep.Timings.Compile),
			Total:     ms(rep.Timings.Total),
		},
	}
	if hit {
		out.Cache = "hit"
	}
	if remote.used || remote.fellBack {
		out.Remote = &RemoteResponse{Workers: remote.workers, Fallback: remote.fellBack}
	}
	if req.Strategy == "exact" {
		out.Epsilon = 0
	}
	return out
}
