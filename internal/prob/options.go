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
// schemes of §4.3. Its text form is its name; an empty text reads as Exact.
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
)

var strategyNames = newNames("strategy", "exact, eager, lazy, or hybrid", "exact", "eager", "lazy", "hybrid")

func (s Strategy) String() string { return strategyNames.name("Strategy", uint8(s)) }

// MarshalText returns the strategy's name.
func (s Strategy) MarshalText() ([]byte, error) { return strategyNames.marshal(uint8(s)) }

// UnmarshalText reads a strategy name; the empty text reads as Exact.
func (s *Strategy) UnmarshalText(text []byte) error {
	v, err := strategyNames.parse(text)
	if err == nil {
		*s = Strategy(v)
	}
	return err
}

// OrderHeuristic selects the variable order of the Shannon expansion. Its
// text form is its name; an empty text reads as FanoutOrder.
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

var orderNames = newNames("order heuristic", "fanout or input", "fanout", "input")

func (h OrderHeuristic) String() string { return orderNames.name("OrderHeuristic", uint8(h)) }

// MarshalText returns the heuristic's name.
func (h OrderHeuristic) MarshalText() ([]byte, error) { return orderNames.marshal(uint8(h)) }

// UnmarshalText reads a heuristic name; the empty text reads as FanoutOrder.
func (h *OrderHeuristic) UnmarshalText(text []byte) error {
	v, err := orderNames.parse(text)
	if err == nil {
		*h = OrderHeuristic(v)
	}
	return err
}

// names is the text form of a small enumeration, indexed by value. text
// holds the names as bytes, so MarshalText allocates nothing; callers must
// not modify what it returns.
type names struct {
	what, want string
	str        []string
	text       [][]byte
}

func newNames(what, want string, str ...string) names {
	n := names{what: what, want: want, str: str}
	for _, s := range str {
		n.text = append(n.text, []byte(s))
	}
	return n
}

func (n names) name(typ string, v uint8) string {
	if int(v) < len(n.str) {
		return n.str[v]
	}
	return fmt.Sprintf("%s(%d)", typ, v)
}

func (n names) marshal(v uint8) ([]byte, error) {
	if int(v) < len(n.text) {
		return n.text[v], nil
	}
	return nil, fmt.Errorf("invalid %s %d", n.what, v)
}

func (n names) parse(text []byte) (uint8, error) {
	if len(text) == 0 {
		return 0, nil
	}
	for i, s := range n.str {
		if string(text) == s {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (want %s)", n.what, text, n.want)
}

// Options configures a compilation.
//
// Its JSON is a worker session's options on the distributed plane
// (internal/dist): the fields a session fixes travel under the tags below,
// the rest stay local. Variable orders do not travel: order computation is
// deterministic, so both sides derive the identical order from Heuristic.
type Options struct {
	// Strategy defaults to Exact.
	Strategy Strategy `json:"strategy"`
	// Epsilon is the absolute approximation error; each target ti gets an
	// error budget of 2ε and the computed bounds satisfy Ui − Li ≤ 2ε.
	// Ignored for Exact.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Workers > 1 enables distributed compilation with that many
	// concurrent workers.
	Workers int `json:"-"`
	// JobDepth is the size d of a distributed job: the depth of the
	// decision-tree fragment a worker explores before forking
	// continuations. Zero defaults to 3 (the paper's best setting).
	JobDepth int `json:"job_depth"`
	// SimulateWorkers runs the distributed runner on one goroutine, with
	// the job split and backpressure of Workers workers, and reports the
	// virtual makespan of a Workers-worker cluster in
	// Stats.SimulatedMakespan: the queue's job log (parent, measured
	// duration, branches) is placed on virtual workers by a list scheduler
	// that respects fork precedence. Workers = 1 is allowed and yields the
	// sum of the job durations. The paper's hybrid-d timings were likewise
	// "obtained by simulating distributed computation on a single machine"
	// (§5); Fig. 9 is regenerated the same way.
	SimulateWorkers bool `json:"-"`
	// Order overrides the variable order. Variables absent from the
	// order are never branched on (only safe when they do not occur in
	// the network).
	Order []event.VarID `json:"-"`
	// Heuristic selects the automatic order when Order is nil.
	Heuristic OrderHeuristic `json:"heuristic"`
	// Timeout aborts compilation, returning the bounds reached so far
	// with Result.TimedOut set. Zero means no timeout.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
	// Obs, when non-nil, receives spans for every compilation stage
	// (order → init → explore/distribute, plus one span per distributed
	// worker), work counters in its metrics registry, and — for budgeted
	// strategies — a bounded "budget.spend" timeline of per-target error
	// budget consumption. A nil Trace disables all of it at the cost of a
	// nil check (no allocation; see internal/obs).
	Obs *obs.Trace `json:"-"`
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
