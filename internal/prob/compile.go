package prob

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/obs"
)

// ErrNoTargets is returned when the network declares no compilation targets.
var ErrNoTargets = errors.New("prob: network has no compilation targets")

// Compile computes probability bounds for every compilation target of the
// network (Algorithm 1). Exact compilation runs until the bounds meet; the
// approximation strategies guarantee Upper − Lower ≤ 2·Epsilon per target
// unless the timeout fires first.
func Compile(net *network.Net, opts Options) (*Result, error) {
	return CompileCtx(context.Background(), net, opts)
}

// Order returns the Shannon-expansion variable order the given heuristic
// produces for the network. Callers that compile the same network repeatedly
// (e.g. the serving layer's artifact cache) can compute the order once and
// replay it through Options.Order, skipping the per-compile order stage.
func Order(net *network.Net, h OrderHeuristic) []event.VarID {
	return computeOrder(net, Options{Heuristic: h})
}

// CompileCtx is Compile with cooperative cancellation: when ctx is cancelled
// or its deadline passes, all workers stop at the next branch boundary and
// CompileCtx returns ctx's error instead of a partial result. This is
// distinct from Options.Timeout, which returns the partial bounds reached so
// far with Result.TimedOut set.
func CompileCtx(ctx context.Context, net *network.Net, opts Options) (*Result, error) {
	// The circuit backend answers from a replay of the circuit it traces
	// (see circuit.go); callers needing the circuit itself use
	// CompileCircuit.
	_, res, err := compile(ctx, net, opts, opts.Strategy == Circuit, nil)
	return res, err
}

// compile is the one compilation driver behind CompileCtx, CompileCircuit
// and CompileExec. It runs one of four modes: a traced sequential walk (trace
// set: a circuit sink is attached and the answer is a replay of the recorded
// circuit), an executor-driven run (exec non-nil, see CompileExec), the
// in-process distributed runner (Workers > 1 or SimulateWorkers), or the
// plain sequential walk. Every mode but the traced one answers from the
// bounds book.
func compile(ctx context.Context, net *network.Net, opts Options, trace bool, exec JobExecutor) (*circuit.Circuit, *Result, error) {
	opts = opts.withDefaults()
	if len(net.Targets) == 0 {
		return nil, nil, ErrNoTargets
	}
	types, err := net.Types()
	if err != nil {
		return nil, nil, err
	}
	if trace {
		// Epsilon and worker fan-out do not apply to a trace, and the core
		// never consults the Circuit strategy value.
		opts.Strategy, opts.Epsilon, opts.Workers, opts.SimulateWorkers = Exact, 0, 1, false
	}
	eps2 := 0.0
	if opts.Strategy != Exact {
		eps2 = 2 * opts.Epsilon
	}
	span := opts.Obs.Root().Start("compile")
	defer span.End()
	switch {
	case trace:
		span.SetStr("strategy", Circuit.String())
	case exec != nil:
		span.SetStr("strategy", opts.Strategy.String())
		span.SetStr("mode", "executor")
	default:
		span.SetStr("strategy", opts.Strategy.String())
		span.SetInt("workers", int64(opts.Workers))
	}
	if opts.Strategy != Exact {
		span.SetFloat("eps", opts.Epsilon)
	}
	span.SetInt("targets", int64(len(net.Targets)))
	span.SetInt("nodes", int64(net.NumNodes()))

	tOrder := time.Now()
	orderSpan := span.Start("order")
	order := computeOrder(net, opts)
	orderSpan.SetInt("vars", int64(len(order)))
	orderSpan.End()
	orderDur := time.Since(tOrder)

	run := &runner{
		net:    net,
		types:  types,
		opts:   opts,
		order:  order,
		span:   span,
		bounds: newBoundsBook(len(net.Targets), eps2),
	}
	if opts.Strategy.budgeted() {
		// Bounded per-target budget-spend timeline; nil when tracing is off.
		run.timeline = opts.Obs.Timeline("budget.spend", budgetTimelineCap)
	}
	if opts.Timeout > 0 {
		run.deadline = time.Now().Add(opts.Timeout)
	}
	// Cancellation watcher: dfs consults run.stop on every branch and
	// runExec before every dispatch, so flipping it aborts all workers
	// promptly. The watcher itself exits when compilation finishes,
	// whichever comes first.
	if ctx.Done() != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				run.canceled.Store(true)
				run.stop.Store(true)
				run.interrupt()
			case <-finished:
			}
		}()
	}
	var sink *circuitSink
	if trace {
		sink = newCircuitSink(net)
	}
	start := time.Now()
	var stats Stats
	switch {
	case exec != nil:
		if stats, err = run.runExec(ctx, exec); err != nil {
			return nil, nil, err
		}
	case opts.Workers > 1 || opts.SimulateWorkers:
		stats = run.runDistributed()
	default:
		stats = run.runSequential(sink)
	}
	stats.Duration = time.Since(start)
	stats.NetworkNodes = net.NumNodes()
	stats.Timings.Order = orderDur
	stats.Timings.Init = run.initDur
	stats.MaskWords = int64(bitsetWords(net.NumNodes()))
	stats.BatchTargets = int64(len(net.Targets))

	span.SetInt("branches", stats.Branches)
	span.SetInt("max_depth", stats.MaxDepth)
	if stats.BudgetPrunes > 0 {
		span.SetInt("budget_prunes", stats.BudgetPrunes)
	}
	if run.timedOut.Load() {
		span.SetStr("timed_out", "true")
	}
	if reg := opts.Obs.Metrics(); reg != nil {
		reg.Counter("prob.branches").Add(stats.Branches)
		reg.Counter("prob.assignments").Add(stats.Assignments)
		reg.Counter("prob.mask_updates").Add(stats.MaskUpdates)
		reg.Counter("prob.budget_prunes").Add(stats.BudgetPrunes)
		reg.Counter("prob.jobs").Add(stats.Jobs)
		reg.Counter("prob.mask_words").Add(stats.MaskWords)
		reg.Counter("prob.batch_targets").Add(stats.BatchTargets)
		reg.Gauge("prob.tree.max_depth").SetMax(float64(stats.MaxDepth))
	}
	if run.canceled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("prob: compile: %w", err)
		}
	}
	res := &Result{Stats: stats, TimedOut: run.timedOut.Load()}
	if !trace {
		lo, hi := run.bounds.snapshot()
		res.Targets = make([]TargetBound, len(net.Targets))
		for i, t := range net.Targets {
			res.Targets[i] = clampBound(t.Name, lo[i], hi[i])
		}
		return nil, res, nil
	}
	c, err := sink.finish()
	if err != nil {
		return nil, nil, err
	}
	span.SetInt("circuit_nodes", int64(c.Nodes()))
	if reg := opts.Obs.Metrics(); reg != nil {
		reg.Gauge("circuit.nodes").Set(float64(c.Nodes()))
	}
	replay, err := EvalCircuit(c, SpaceProbs(net.Space))
	if err != nil {
		return nil, nil, err
	}
	res.Targets = replay.Targets
	return c, res, nil
}

// clampBound is one target's reported bound, float round-off clamped at the
// [0, 1] borders. The bounds book and a circuit replay both report through
// it — the last step of their bit-identity contract.
func clampBound(name string, lo, hi float64) TargetBound {
	lo, hi = clamp(lo, hi)
	return TargetBound{Name: name, Lower: lo, Upper: hi}
}

// clamp is clampBound's arithmetic.
func clamp(lo, hi float64) (float64, float64) {
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// budgetTimelineCap bounds the per-target budget-spend timeline recorded
// under tracing; beyond it, points are counted as dropped.
const budgetTimelineCap = 8192

// runner holds the pieces shared by all workers of one compilation.
type runner struct {
	net      *network.Net
	types    []network.ValueType
	opts     Options
	order    []event.VarID
	bounds   *boundsBook
	span     *obs.Span     // compile span (nil when tracing is off)
	timeline *obs.Timeline // budget-spend timeline (nil unless traced+budgeted)
	deadline time.Time
	initDur  time.Duration // the init stage, set by initPass
	stop     atomic.Bool   // set on timeout or external abort
	timedOut atomic.Bool
	canceled atomic.Bool // set when the compile context was cancelled
	// queue is the distributed work queue, published so the cancellation
	// watcher can wake workers parked on its condition variable.
	queue atomic.Pointer[workQueue]
}

// interrupt wakes workers blocked on the distributed work queue so they
// observe the stop flag promptly instead of sleeping until the queue drains.
func (r *runner) interrupt() {
	if q := r.queue.Load(); q != nil {
		q.interrupt()
	}
}

// leaseBudgetBuf hands a walker the backing array for its per-depth budget
// buffers: (|order|+2)·n floats cover the deepest possible expansion, so a
// Hybrid walker allocates exactly once per compilation instead of once per
// depth reached.
func (r *runner) leaseBudgetBuf(n int) []float64 {
	return make([]float64, (len(r.order)+2)*n)
}

// initPass builds a state over the runner's bounds book and runs the initial
// bottom-up mask pass on it, crediting targets decided without any
// assignment. A non-nil sink records those decisions as the circuit root's.
// Every mode runs it exactly once: its state is the sequential walk's, the
// distributed root job's snapshot, or the coordinator's credit of the
// decisions no job reports. Only the distributed runner, which returns its
// blocks, sets recycle.
func (r *runner) initPass(sink *circuitSink, recycle bool) *fstate {
	t0 := time.Now()
	span := r.span.Start("init")
	s := r.attach(newFstate(r.net, r.types, r.opts, r.bounds, recycle))
	if sink != nil {
		s.onAdd = sink.observe
	}
	s.initAll()
	span.End()
	r.initDur = time.Since(t0)
	return s
}

// rootBudget is the error budget the decision-tree root starts with: 2ε per
// target for the budgeted strategies, zero otherwise.
func (r *runner) rootBudget() []float64 {
	E := make([]float64, len(r.net.Targets))
	if r.opts.Strategy.budgeted() {
		for i := range E {
			E[i] = 2 * r.opts.Epsilon
		}
	}
	return E
}

// runSequential explores the whole decision tree on the calling goroutine.
// A non-nil sink records the walk into a circuit: targets the initial mask
// pass decides fire with the full unit mass and become the root node's
// decisions.
func (r *runner) runSequential(sink *circuitSink) Stats {
	s := r.initPass(sink, false)
	exploreName := "explore"
	if sink != nil {
		exploreName = "trace"
	}
	st := &s.stats

	tExplore := time.Now()
	exploreSpan := r.span.Start(exploreName)
	s.sizeWalk()
	w := &walker{state: s, run: r, sink: sink}
	root := w.dfs(0, 0, -1, false, 1, r.rootBudget())
	if sink != nil {
		sink.root = root
	}
	exploreSpan.SetInt("branches", st.Branches)
	exploreSpan.End()
	st.Timings.Explore = time.Since(tExplore)
	st.Jobs = 1
	return *st
}

// attach wires the runner's order and abort machinery into a worker state.
func (r *runner) attach(s *fstate) *fstate {
	s.attachRun(r.order, r.deadline, &r.stop, &r.timedOut)
	return s
}

// walker runs the depth-first Shannon expansion over one state — the only
// traversal of the decision tree in this package. In distributed mode
// forkDepth > 0 makes it enqueue a continuation job instead of descending
// past that many local assignments.
type walker struct {
	state     *fstate
	run       *runner
	forkDepth int
	// fork ships the current masks as a new job; it reports false when
	// the queue is saturated, in which case the walker descends locally.
	fork func(oi int, p float64, E []float64) bool
	// localVars counts assignments made since the current job's root.
	localVars int
	// back is the contiguous backing of the per-depth budget-halving
	// buffers (Hybrid only), leased from the runner on first use.
	back []float64
	// trackPath maintains path — the assignments from this walker's job
	// root to the current branch — so session executors can ship fork
	// continuations as replayable assignment paths instead of raw mask
	// snapshots.
	trackPath bool
	path      []Assign
	// sink, when non-nil, records the traversal into an arithmetic circuit
	// (exact sequential walks only; see circuit.go). It observes the walk
	// and never steers it, so a traced walk visits the same branches with
	// the same counters as an untraced one.
	sink *circuitSink
}

// dfs explores the branch extending the current assignment by x ↦ xval
// (x < 0 at the root) with branch mass p and per-target error budgets E.
// It mutates E in place to the residual budgets (Algorithm 1, blue lines);
// for non-budgeted strategies E stays untouched. It returns the circuit node
// recorded for the branch: circuit.None without a sink or for a gated
// branch.
func (w *walker) dfs(depth, oi int, x event.VarID, xval bool, p float64, E []float64) circuit.NodeID {
	s := w.state
	r := w.run
	sink := w.sink
	st := &s.stats
	st.Branches++
	if int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	if st.Branches&1023 == 0 {
		r.checkDeadline()
	}
	if r.stop.Load() || p == 0 {
		// The subtree stays unexplored: its targets (the parent was not
		// settled) never fire.
		sink.cut()
		return circuit.None
	}
	budgeted := r.opts.Strategy.budgeted()
	// Budget pruning: when every target's budget covers the whole subtree
	// mass, cut the subtree and consume the budget.
	if budgeted && p <= minOf(E) {
		st.BudgetPrunes++
		if r.timeline != nil {
			for i := range E {
				r.timeline.Add(i, p)
			}
		}
		for i := range E {
			E[i] -= p
		}
		return circuit.None
	}
	mark := s.trailMark()
	evMark := sink.mark(x < 0)
	if x >= 0 {
		s.assign(x, xval, p)
		w.localVars++
		if w.trackPath {
			w.path = append(w.path, Assign{Var: x, Val: xval})
		}
	}

	v := event.VarID(-1)
	hiID, loID := circuit.None, circuit.None
	switch {
	case s.allSettled():
		// Every target masked on this branch or globally tight.
		if s.openTargets > 0 {
			// Settled via global bounds convergence with targets still
			// undecided on this branch: their mass never fired here.
			sink.cut()
		}

	case w.forkDepth > 0 && w.localVars > 0 && w.localVars%w.forkDepth == 0 &&
		w.fork(oi, p, E):
		// Distributed fork boundary: the masks and budget travelled with
		// the job. When the queue is saturated, fork reports false and
		// the walker keeps descending locally instead.
		if budgeted {
			for i := range E {
				E[i] = 0
			}
		}

	default:
		oi2, y, ok := s.nextVar(oi)
		if ok {
			v = y
			py := r.net.Space.Prob(y)
			switch r.opts.Strategy {
			case Hybrid:
				L := w.buf(depth, len(E))
				for i := range E {
					L[i] = E[i] / 2
				}
				hiID = w.dfs(depth+1, oi2+1, y, true, p*py, L)
				for i := range E {
					E[i] = E[i]/2 + L[i]
				}
			default:
				// Exact and lazy carry no budget; eager hands the full
				// remaining budget to the left branch in place.
				hiID = w.dfs(depth+1, oi2+1, y, true, p*py, E)
			}
			// Algorithm 1: explore the right branch only while some
			// target's bounds exceed 2ε.
			if !r.stop.Load() && !r.bounds.allTight() {
				loID = w.dfs(depth+1, oi2+1, y, false, p*(1-py), E)
			} else if s.openTargets > 0 {
				sink.cut()
			}
		}
		// !ok is unreachable while targets are open: an undecided
		// node always has an undecided child, so some influential
		// variable exists (see nextVar).
	}

	id := sink.node(v, hiID, loID, evMark)
	if x >= 0 {
		w.localVars--
		if w.trackPath {
			w.path = w.path[:len(w.path)-1]
		}
		s.undoTo(mark)
	}
	return id
}

// buf returns the depth-th budget buffer, a row of a single contiguous
// backing array leased from the runner — one allocation per walker instead
// of one per depth. Exact compilation never calls it, so the non-budgeted
// path stays allocation-free here.
func (w *walker) buf(depth, n int) []float64 {
	if w.back == nil {
		w.back = w.run.leaseBudgetBuf(n)
	}
	off := depth * n
	return w.back[off : off+n]
}

func (r *runner) checkDeadline() {
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		r.timedOut.Store(true)
		r.stop.Store(true)
		r.interrupt()
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
