// Package core is the ENFrame platform facade: it takes a user program (the
// Python fragment of §2), probabilistic input data, and a set of target
// events, and runs the full pipeline — parse → validate → translate and
// ground into an event network in one pass (§3, §4.1) → compute exact
// or ε-approximate probabilities (§4). Users stay oblivious to the
// probabilistic nature of the input: the same program runs deterministically
// through internal/interp and probabilistically through this package.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/translate"
	"enframe/internal/vec"
)

// Spec describes one ENFrame run.
type Spec struct {
	// Source is the user program text.
	Source string
	// Parsed, when non-nil, is the already parsed form of Source; the
	// pipeline then skips lexing and parsing entirely, and Source serves
	// only error text and cache keys. The program is shared — a builtin's
	// one AST (lang.Builtin.Parsed) goes to every server.BuildSpec spec and
	// every stream session of the process — so nothing may mutate it; the
	// pipeline only reads it.
	Parsed *lang.Program
	// Objects are the uncertain input data points backing loadData();
	// Space is the variable space their lineage ranges over.
	Objects []lineage.Object
	Space   *event.Space
	// Params backs loadParams() in binding order.
	Params []int
	// InitIndices backs init().
	InitIndices []int
	// Matrix backs a third loadData() binding (Markov clustering).
	Matrix [][]float64
	// Metric is the distance measure for dist(); nil means Euclidean.
	Metric vec.Distance
	// Targets selects the program variables whose final events become
	// compilation targets. Entries are flattened element symbols
	// ("Centre[0][2]") or prefixes ending in "[" ("Centre[") matching all
	// elements; they must be Boolean-valued.
	Targets []string
	// Compile configures the probability computation.
	Compile prob.Options
}

// The request-shape caps bound what a served request — a /v1/run or a
// /v1/stream session — may make the front end allocate: lineage and
// grounding run before any deadline applies, and the network grows with the
// cluster count, the variable pool and the unrolled iterations.
// server.BuildSpec and stream.NewSession enforce them.
const (
	MaxK    = 16
	MaxVars = 64
	MaxIter = 10
)

// Report is the outcome of a run.
type Report struct {
	// Result holds per-target probability bounds and compilation stats.
	Result *prob.Result
	// Net is the grounded event network the compiler ran on.
	Net *network.Net
	// Ground is the hash-cons accounting of the network construction.
	Ground network.BuilderStats
	// Timings is the wall-clock breakdown of the run across stages.
	Timings Timings
}

// Timings is the per-stage wall-clock breakdown of one pipeline run.
// Translate includes semantic checking; Compile's internal breakdown
// (order/init/explore) lives in Result.Stats.Timings.
type Timings struct {
	Lex       time.Duration
	Parse     time.Duration
	Translate time.Duration
	Ground    time.Duration
	Compile   time.Duration
	Total     time.Duration
}

// Artifact is the reusable compiled prefix of a run: the grounded,
// hash-consed event network (§4.1), i.e. everything up to — but not
// including — probability compilation. An
// Artifact is immutable after construction (compilation keeps all mutable
// masks in per-run state), so one Artifact may serve any number of
// concurrent CompileContext calls with different strategies, ε, workers,
// and deadlines. The serving layer's compiled-network cache stores
// Artifacts keyed by a content hash of (program, data spec, targets).
type Artifact struct {
	// Net is the grounded event network compilation runs on.
	Net *network.Net
	// Ground is the hash-cons accounting of the network construction.
	Ground network.BuilderStats
	// PrepTimings holds the Lex/Parse/Translate/Ground stage durations of
	// the original preparation; Compile and Total are zero.
	PrepTimings Timings

	// orders memoizes the Shannon-expansion variable order per heuristic,
	// so cache hits re-enter compilation past the order stage too.
	ordersMu sync.Mutex
	orders   map[prob.OrderHeuristic][]event.VarID

	// circuits memoizes the traced arithmetic circuit per heuristic, with
	// the same single-flight coalescing as the serving layer's artifact
	// cache: concurrent first callers share one trace. Only complete
	// circuits are cached (a timed-out partial trace must not serve
	// replay-at-other-probabilities queries forever after).
	circuitsMu sync.Mutex
	circuits   map[prob.OrderHeuristic]*circuitCall

	// netBytes is Net's byte count, taken once at preparation.
	netBytes int64
}

// circuitCall is one in-flight or completed circuit trace.
type circuitCall struct {
	done chan struct{}
	c    *circuit.Circuit
	res  *prob.Result
	err  error
}

// PanicError is what a single-flight leader records when the work it led
// panicked: the leader recovers, unregisters its call and releases its
// waiters with this error instead of leaving them blocked forever on a key
// nobody is computing. The serving layer answers it with 500.
type PanicError struct {
	// Op names the work that panicked ("prepare", "circuit trace").
	Op    string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("core: panic during %s: %v", e.Op, e.Value) }

// NewPanicError wraps a recovered panic value with the current stack; call
// it from the deferred function that recovered.
func NewPanicError(op string, recovered any) *PanicError {
	return &PanicError{Op: op, Value: recovered, Stack: debug.Stack()}
}

// testHookTrace, when set by tests, runs on the tracing (leader) path of
// Circuit just before prob.CompileCircuit.
var testHookTrace func()

// Run executes the full ENFrame pipeline. When spec.Compile.Obs is set,
// every stage is traced as a span under the trace root and the hot layers
// publish counters into the trace's metrics registry.
func Run(spec Spec) (*Report, error) {
	return RunContext(context.Background(), spec)
}

// RunContext is Run with cooperative cancellation: the pipeline aborts
// between stages and — during the long compilation stage — at branch
// granularity when ctx is cancelled or its deadline passes.
func RunContext(ctx context.Context, spec Spec) (*Report, error) {
	art, err := PrepareContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	return art.CompileContext(ctx, spec.Compile)
}

// PrepareContext runs the pipeline up to and including grounding
// (lex → parse → translate → ground) and returns the reusable Artifact.
// spec.Compile is consulted only for its Obs trace; strategy, ε, workers,
// and deadline belong to CompileContext.
func PrepareContext(ctx context.Context, spec Spec) (*Artifact, error) {
	tr := spec.Compile.Obs
	root := tr.Root()
	var tm Timings
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	prog := spec.Parsed
	if prog == nil {
		tLex := time.Now()
		lexSpan := root.Start("lex")
		toks, err := lang.Tokens(spec.Source)
		lexSpan.SetInt("tokens", int64(len(toks)))
		lexSpan.End()
		tm.Lex = time.Since(tLex)
		if err != nil {
			return nil, fmt.Errorf("core: lex: %w", err)
		}

		tParse := time.Now()
		parseSpan := root.Start("parse")
		prog, err = lang.ParseTokens(toks)
		parseSpan.End()
		tm.Parse = time.Since(tParse)
		if err != nil {
			return nil, fmt.Errorf("core: parse: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	ext := translate.External{
		Objects:     spec.Objects,
		Matrix:      spec.Matrix,
		Params:      spec.Params,
		InitIndices: spec.InitIndices,
		Obs:         tr,
	}

	// Translation emits events straight into the hash-consed builder, so
	// Translate covers the interleaved grounding work and Ground only the
	// target sweep + finalisation.
	tTranslate := time.Now()
	b := network.NewBuilder(spec.Space, spec.Metric)
	b.SetObs(tr.Metrics())
	res, err := translate.TranslateInto(prog, ext, b)
	tm.Translate = time.Since(tTranslate)
	if err != nil {
		return nil, fmt.Errorf("core: translate: %w", err)
	}
	targets, err := expandTargets(res, spec.Targets)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	tGround := time.Now()
	groundSpan := root.Start("ground")
	for _, sym := range targets {
		id, ok := res.BoolNode(sym)
		if !ok {
			groundSpan.End()
			return nil, fmt.Errorf("core: target %q is not a Boolean program variable", sym)
		}
		b.Target(sym, id)
	}
	net := b.Build()
	ground := b.Stats()
	groundSpan.SetInt("nodes", int64(net.NumNodes()))
	groundSpan.SetInt("targets", int64(len(net.Targets)))
	groundSpan.SetFloat("hashcons_hit_rate", ground.HitRate())
	groundSpan.End()
	tm.Ground = time.Since(tGround)
	tm.Total = tm.Lex + tm.Parse + tm.Translate + tm.Ground

	return &Artifact{Net: net, Ground: ground, PrepTimings: tm, netBytes: net.Bytes()}, nil
}

// Order returns the artifact's memoized variable order for the heuristic,
// computing it on first use. Safe for concurrent callers.
func (a *Artifact) Order(h prob.OrderHeuristic) []event.VarID {
	a.ordersMu.Lock()
	defer a.ordersMu.Unlock()
	if a.orders == nil {
		a.orders = map[prob.OrderHeuristic][]event.VarID{}
	}
	order, ok := a.orders[h]
	if !ok {
		order = prob.Order(a.Net, h)
		a.orders[h] = order
	}
	return order
}

// Circuit returns the artifact's traced arithmetic circuit for the
// heuristic together with the Result of replaying it at the space's
// probabilities — bit-identical, work counters included, to an exact
// compilation. The first caller traces (honouring opts.Obs, opts.Timeout and
// ctx); cached reports that this call ran zero compilations: it hit the memo
// or coalesced onto another caller's trace.
//
// The returned Circuit and Result are SHARED with every other caller and
// must be treated as read-only; copy Result.Targets before changing it.
//
// Only complete circuits are memoized. An incomplete trace (boundary
// probabilities, soft timeout) is handed to the callers already waiting on
// it — unless it timed out, which is the leader's own budget and nobody
// else's answer — and the next call traces again. A leader whose context
// dies hands leadership to the next waiter instead of caching its failure; a
// leader that panics releases its waiters with a *PanicError. When
// opts.Order overrides the variable order the memo is bypassed entirely.
func (a *Artifact) Circuit(ctx context.Context, opts prob.Options) (*circuit.Circuit, *prob.Result, bool, error) {
	opts.Strategy = prob.Circuit
	if opts.Order != nil {
		c, res, err := prob.CompileCircuit(ctx, a.Net, opts)
		if err != nil {
			return nil, nil, false, fmt.Errorf("core: compile: %w", err)
		}
		return c, res, false, nil
	}
	opts.Order = a.Order(opts.Heuristic)
	for {
		a.circuitsMu.Lock()
		call, ok := a.circuits[opts.Heuristic]
		if !ok {
			call = &circuitCall{done: make(chan struct{})}
			if a.circuits == nil {
				a.circuits = map[prob.OrderHeuristic]*circuitCall{}
			}
			a.circuits[opts.Heuristic] = call
			a.circuitsMu.Unlock()
			a.trace(ctx, opts, call)
			return call.c, call.res, false, call.err
		}
		a.circuitsMu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, nil, false, fmt.Errorf("core: %w", ctx.Err())
		}
		if call.err == nil && !call.res.TimedOut {
			return call.c, call.res, true, nil
		}
		if call.err == nil || errors.Is(call.err, context.Canceled) || errors.Is(call.err, context.DeadlineExceeded) {
			continue // the leader's deadline, not ours: retry, possibly as the new leader
		}
		return nil, nil, false, call.err
	}
}

// trace is the leader's half of Circuit: it fills call, keeps it registered
// only when the circuit is complete, and releases the waiters — also when
// the trace panics.
func (a *Artifact) trace(ctx context.Context, opts prob.Options, call *circuitCall) {
	defer func() {
		if r := recover(); r != nil {
			call.c, call.res, call.err = nil, nil, NewPanicError("circuit trace", r)
		}
		if call.err != nil || !call.c.Complete() {
			// No other call registers under this heuristic until this one
			// is deleted: waiters retry only after done closes below.
			a.circuitsMu.Lock()
			delete(a.circuits, opts.Heuristic)
			a.circuitsMu.Unlock()
		}
		close(call.done)
	}()
	if testHookTrace != nil {
		testHookTrace()
	}
	call.c, call.res, call.err = prob.CompileCircuit(ctx, a.Net, opts)
	if call.err != nil {
		call.err = fmt.Errorf("core: compile: %w", call.err)
	}
}

// Bytes reports the memory the artifact holds: its network's columns (see
// network.Net.Bytes) plus every memoized circuit with its replayed Result.
// The shared variable space, the memoized orders and small bookkeeping are
// not counted, so it reads slightly under the heap the artifact retains.
func (a *Artifact) Bytes() int64 {
	n := a.netBytes
	a.circuitsMu.Lock()
	defer a.circuitsMu.Unlock()
	for _, call := range a.circuits {
		select {
		case <-call.done:
			n += call.c.Bytes() + int64(len(call.res.Targets))*targetBoundBytes
		default: // still tracing
		}
	}
	return n
}

const targetBoundBytes = int64(unsafe.Sizeof(prob.TargetBound{}))

// CompileContext computes probabilities on the prepared network with fresh
// compilation options. Repeated calls — concurrent ones included — share the
// artifact; the variable order is memoized per heuristic unless opts.Order
// overrides it.
func (a *Artifact) CompileContext(ctx context.Context, opts prob.Options) (*Report, error) {
	if opts.Order == nil {
		opts.Order = a.Order(opts.Heuristic)
	}
	tCompile := time.Now()
	pr, err := prob.CompileCtx(ctx, a.Net, opts)
	if err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	return a.ReportFor(pr, time.Since(tCompile)), nil
}

// ReportFor wraps a Result computed on this artifact — by whichever
// evaluator — as a Report: the original preparation's stage timings plus
// compile, the time the caller spent obtaining pr.
func (a *Artifact) ReportFor(pr *prob.Result, compile time.Duration) *Report {
	tm := a.PrepTimings
	tm.Compile = compile
	tm.Total = tm.Lex + tm.Parse + tm.Translate + tm.Ground + tm.Compile
	return &Report{Result: pr, Net: a.Net, Ground: a.Ground, Timings: tm}
}

// expandTargets resolves target patterns against the translated bindings.
func expandTargets(res *translate.NetResult, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: no targets requested")
	}
	var out []string
	for _, pat := range patterns {
		// A bare name that is itself a Boolean scalar ("b0") is an exact
		// target, not a prefix pattern.
		if !strings.Contains(pat, "[") {
			if res.HasBool(pat) {
				out = append(out, pat)
				continue
			}
		}
		if strings.HasSuffix(pat, "[") || !strings.Contains(pat, "[") {
			prefix := strings.TrimSuffix(pat, "[") + "["
			matches := res.SymbolsWithPrefix(prefix)
			if len(matches) == 0 {
				return nil, fmt.Errorf("core: no program variables match target pattern %q", pat)
			}
			out = append(out, matches...)
			continue
		}
		out = append(out, pat)
	}
	sort.Strings(out)
	// Deduplicate.
	uniq := out[:0]
	for i, s := range out {
		if i == 0 || out[i-1] != s {
			uniq = append(uniq, s)
		}
	}
	return uniq, nil
}
