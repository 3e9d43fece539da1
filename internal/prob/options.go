// Package prob implements ENFrame's probability-computation algorithms
// (paper §4): bulk compilation of all events of an event network into one
// decision tree via Shannon expansion, incremental mask propagation
// (Algorithms 1 and 2), anytime absolute ε-approximation with the eager,
// lazy, and hybrid budget strategies (§4.3), and distributed exploration of
// disjoint decision-tree fragments by a pool of workers (§4.4).
package prob

import (
	"fmt"
	"time"

	"enframe/internal/event"
	"enframe/internal/obs"
)

// Strategy selects between exact compilation and the three approximation
// schemes of §4.3.
type Strategy uint8

const (
	// Exact compiles until every target's probability bounds meet.
	Exact Strategy = iota
	// Eager spends the whole error budget as soon as possible, pruning
	// the leftmost subtrees of the decision tree.
	Eager
	// Lazy follows exact computation and stops as soon as every target's
	// bounds are within 2ε, effectively spending the budget on the
	// rightmost branches.
	Lazy
	// Hybrid halves the budget at every split and carries residual budget
	// from the left branch into the right branch.
	Hybrid
	// Circuit traces one exact sequential compilation into a reusable
	// arithmetic circuit (internal/circuit) and answers from a replay
	// evaluation of it — the compile-once/evaluate-many backend. Marginals
	// are bit-identical to Exact; Epsilon and Workers are ignored.
	Circuit
)

func (s Strategy) String() string {
	switch s {
	case Exact:
		return "exact"
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	case Hybrid:
		return "hybrid"
	case Circuit:
		return "circuit"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// ParseStrategy is String's inverse on the five strategy names.
func ParseStrategy(s string) (Strategy, error) {
	for _, st := range []Strategy{Exact, Eager, Lazy, Hybrid, Circuit} {
		if s == st.String() {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want exact, eager, lazy, hybrid, or circuit)", s)
}

// OrderHeuristic selects the variable order of the Shannon expansion.
type OrderHeuristic uint8

const (
	// FanoutOrder orders variables by decreasing influence — the number
	// of network nodes they (transitively) feed into — approximating the
	// paper's "influences as many events as possible" rule.
	FanoutOrder OrderHeuristic = iota
	// InputOrder keeps the declaration order of the variable space; used
	// by the variable-order ablation.
	InputOrder
)

func (h OrderHeuristic) String() string {
	switch h {
	case FanoutOrder:
		return "fanout"
	case InputOrder:
		return "input"
	}
	return fmt.Sprintf("OrderHeuristic(%d)", uint8(h))
}

// ParseOrder is String's inverse on the two heuristic names.
func ParseOrder(s string) (OrderHeuristic, error) {
	for _, h := range []OrderHeuristic{FanoutOrder, InputOrder} {
		if s == h.String() {
			return h, nil
		}
	}
	return 0, fmt.Errorf("unknown order heuristic %q (want fanout or input)", s)
}

// Options configures a compilation.
type Options struct {
	// Strategy defaults to Exact.
	Strategy Strategy
	// Epsilon is the absolute approximation error; each target ti gets an
	// error budget of 2ε and the computed bounds satisfy Ui − Li ≤ 2ε.
	// Ignored for Exact.
	Epsilon float64
	// Workers > 1 enables distributed compilation with that many
	// concurrent workers.
	Workers int
	// JobDepth is the size d of a distributed job: the depth of the
	// decision-tree fragment a worker explores before forking
	// continuations. Zero defaults to 3 (the paper's best setting).
	JobDepth int
	// SimulateWorkers runs the distributed runner on one goroutine, with
	// the job split and backpressure of Workers workers, and reports the
	// virtual makespan of a Workers-worker cluster in
	// Stats.SimulatedMakespan: the queue's job log (parent, measured
	// duration, branches) is placed on virtual workers by a list scheduler
	// that respects fork precedence. Workers = 1 is allowed and yields the
	// sum of the job durations. The paper's hybrid-d timings were likewise
	// "obtained by simulating distributed computation on a single machine"
	// (§5); Fig. 9 is regenerated the same way.
	SimulateWorkers bool
	// Order overrides the variable order. Variables absent from the
	// order are never branched on (only safe when they do not occur in
	// the network).
	Order []event.VarID
	// Heuristic selects the automatic order when Order is nil.
	Heuristic OrderHeuristic
	// Timeout aborts compilation, returning the bounds reached so far
	// with Result.TimedOut set. Zero means no timeout.
	Timeout time.Duration
	// Obs, when non-nil, receives spans for every compilation stage
	// (order → init → explore/distribute, plus one span per distributed
	// worker), work counters in its metrics registry, and — for budgeted
	// strategies — a bounded "budget.spend" timeline of per-target error
	// budget consumption. A nil Trace disables all of it at the cost of a
	// nil check (no allocation; see internal/obs).
	Obs *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.JobDepth <= 0 {
		o.JobDepth = 3
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// budgeted reports whether the strategy prunes subtrees against an error
// budget (the blue lines of Algorithm 1).
func (s Strategy) budgeted() bool { return s == Eager || s == Hybrid }

// TargetBound is the computed probability interval of one compilation
// target.
type TargetBound struct {
	Name         string
	Lower, Upper float64
}

// Estimate returns the midpoint of the bounds, the canonical
// ε-approximation pˆ with L ≤ pˆ ≤ U.
func (t TargetBound) Estimate() float64 {
	m := (t.Lower + t.Upper) / 2
	if m < 0 {
		return 0
	}
	if m > 1 {
		return 1
	}
	return m
}

// Gap returns U − L.
func (t TargetBound) Gap() float64 { return t.Upper - t.Lower }

// Stats reports work counters of a compilation.
type Stats struct {
	// Branches is the number of decision-tree nodes visited.
	Branches int64
	// Assignments is the number of variable assignments propagated.
	Assignments int64
	// MaskUpdates counts node-mask changes (including initial masking).
	MaskUpdates int64
	// BudgetPrunes counts subtrees cut by the error budget.
	BudgetPrunes int64
	// MaskWords is the number of uint64 words per truth-value bit plane of
	// the core: ⌈nodes/64⌉, the unit of word-wide snapshot/restore work at
	// distributed fork markers.
	MaskWords int64
	// BatchTargets is the number of compilation targets batched through the
	// single shared expansion pass.
	BatchTargets int64
	// MaxDepth is the deepest decision-tree node visited (0 when only the
	// root was needed).
	MaxDepth int64
	// Jobs counts distributed jobs (1 for sequential runs).
	Jobs int64
	// SimulatedMakespan is the virtual wall-clock of a simulated
	// W-worker run (zero unless Options.SimulateWorkers was set).
	SimulatedMakespan time.Duration
	// NetworkNodes is the size of the compiled event network.
	NetworkNodes int
	// Duration is the wall-clock compilation time.
	Duration time.Duration
	// Timings breaks Duration into compilation stages.
	Timings StageTimings
	// PerWorker holds per-worker utilisation of a distributed run, indexed
	// by worker id (nil for sequential runs). For simulated runs it is the
	// list schedule's placement: each virtual worker's jobs, their branches
	// and its virtual busy time.
	PerWorker []WorkerStats
}

// StageTimings is the wall-clock breakdown of one compilation.
type StageTimings struct {
	// Order is the variable-order computation (§4.2 heuristic).
	Order time.Duration
	// Init is the initial bottom-up mask pass over the network.
	Init time.Duration
	// Explore is the decision-tree exploration (including distribution).
	Explore time.Duration
}

// WorkerStats summarises one worker of a distributed compilation.
type WorkerStats struct {
	// Jobs and Branches count the work the worker performed.
	Jobs     int64
	Branches int64
	// Busy is the time spent executing jobs (as opposed to waiting on the
	// queue); for simulated workers it is virtual time.
	Busy time.Duration
}

// Utilization returns Busy as a fraction of the given makespan.
func (w WorkerStats) Utilization(makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(w.Busy) / float64(makespan)
}

// Result is the outcome of a compilation.
type Result struct {
	Targets  []TargetBound
	Stats    Stats
	TimedOut bool
}

// Target returns the bound for the named target.
func (r *Result) Target(name string) (TargetBound, bool) {
	for _, t := range r.Targets {
		if t.Name == name {
			return t, true
		}
	}
	return TargetBound{}, false
}

// MaxGap returns the widest bound interval across targets.
func (r *Result) MaxGap() float64 {
	var g float64
	for _, t := range r.Targets {
		if t.Gap() > g {
			g = t.Gap()
		}
	}
	return g
}
