package prob

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enframe/internal/event"
	"enframe/internal/network"
)

// Session pins one event network plus fixed compilation options for repeated
// job execution — the worker side of the executor-driven distributed plane.
// Construction runs the variable order and the initial bottom-up mask pass
// once; every job then resets from that pristine snapshot, replays its
// assignment path without recording (the forking job already credited
// targets masked within the prefix), and explores its fragment with an
// always-fork policy at depth-d boundaries.
//
// Jobs execute against a session-local boundsBook cloned from the post-init
// book rather than a globally shared one. That makes each job's result a
// pure function of the job itself: re-executing after a worker loss
// reproduces the identical item stream, so duplicate completions merge
// idempotently, and exact-strategy runs stay bit-reproducible. The local
// book still drives the termination checks; for exact compilation its
// all-tight cut only ever skips zero-mass subtrees, so the add stream is
// unaffected (see coordinator.go for the merge argument).
type Session struct {
	net   *network.Net
	types []network.ValueType
	opts  Options
	order []event.VarID
	eps2  float64

	pristine     *fstate
	pristineBook *boundsBook

	pool sync.Pool // *sessWorker
}

// sessWorker is one reusable per-job execution state with its private book.
type sessWorker struct {
	s    *fstate
	book *boundsBook
}

// NewSession prepares a network for job execution. opts fixes strategy, ε,
// job depth, heuristic/order, and the per-job timeout for every job
// of the session; Workers is ignored (parallelism is the executor's
// concern). Safe for concurrent ExecJob calls afterwards.
func NewSession(net *network.Net, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	if len(net.Targets) == 0 {
		return nil, ErrNoTargets
	}
	types, err := net.Types()
	if err != nil {
		return nil, err
	}
	eps2 := 0.0
	if opts.Strategy != Exact {
		eps2 = 2 * opts.Epsilon
	}
	order := computeOrder(net, opts)
	book := newBoundsBook(len(net.Targets), eps2)
	pr := newFstate(net, types, opts, book, false)
	pr.attachRun(order, time.Time{}, nil, nil)
	pr.initAll()
	return &Session{
		net: net, types: types, opts: opts, order: order, eps2: eps2,
		pristine: pr, pristineBook: book,
	}, nil
}

// Targets returns the number of compilation targets (the length job budget
// and residual vectors must have).
func (ss *Session) Targets() int { return len(ss.net.Targets) }

// ExecJob executes one job and returns its ordered result stream. It is
// deterministic given the job (see Session) and safe for concurrent use.
// Cancelling ctx aborts at branch granularity and returns ctx's error; a
// job or session timeout instead returns the partial result with TimedOut.
func (ss *Session) ExecJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	t0 := time.Now()
	wkr, _ := ss.pool.Get().(*sessWorker)
	if wkr == nil {
		book := newBoundsBook(len(ss.net.Targets), ss.eps2)
		wkr = &sessWorker{book: book, s: ss.pristine.worker(book)}
	}
	defer ss.pool.Put(wkr)

	r := &runner{net: ss.net, types: ss.types, opts: ss.opts, order: ss.order, bounds: wkr.book}
	if ss.opts.Timeout > 0 {
		r.deadline = t0.Add(ss.opts.Timeout)
	}
	if j.Timeout > 0 {
		if d := t0.Add(j.Timeout); r.deadline.IsZero() || d.Before(r.deadline) {
			r.deadline = d
		}
	}
	s := r.attach(wkr.s)
	wkr.book.restoreFrom(ss.pristineBook)
	s.copyFrom(&ss.pristine.fblock)

	if ctx.Done() != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				r.canceled.Store(true)
				r.stop.Store(true)
			case <-finished:
			}
		}()
	}

	// Replay the assignment prefix with recording off: propagation is
	// deterministic, so the masks end up bit-identical to the forking
	// worker's state at the fork point.
	s.recording = false
	for _, a := range j.Path {
		s.assign(a.Var, a.Val, j.P)
		if r.stop.Load() {
			break
		}
	}
	s.clearTrail()
	s.recording = true

	res := &WireResult{ID: j.ID}
	s.onAdd = func(ti int, isTrue bool, mass float64) {
		res.Items = append(res.Items, WireItem{Kind: ItemAdd, Target: int32(ti), IsTrue: isTrue, Mass: mass})
	}
	defer func() { s.onAdd = nil }()
	w := &walker{state: s, run: r, forkDepth: ss.opts.JobDepth, trackPath: true}
	w.fork = func(oi int, p float64, E []float64) bool {
		fp := make([]Assign, 0, len(j.Path)+len(w.path))
		fp = append(append(fp, j.Path...), w.path...)
		res.Items = append(res.Items, WireItem{Kind: ItemFork, Fork: int32(len(res.Forks))})
		res.Forks = append(res.Forks, WireFork{
			Path: fp, OI: oi, P: p, E: append([]float64(nil), E...),
		})
		return true
	}

	E := make([]float64, len(ss.net.Targets))
	copy(E, j.E)
	st := &s.stats
	base := *st
	st.MaxDepth = 0
	if !r.stop.Load() {
		w.dfs(0, j.OI, -1, false, j.P, E)
	}
	if r.canceled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("prob: job %d: %w", j.ID, err)
		}
	}
	res.Residual = E
	res.TimedOut = r.timedOut.Load()
	res.Stats = JobStats{
		Branches:     st.Branches - base.Branches,
		Assignments:  st.Assignments - base.Assignments,
		MaskUpdates:  st.MaskUpdates - base.MaskUpdates,
		BudgetPrunes: st.BudgetPrunes - base.BudgetPrunes,
		MaxDepth:     st.MaxDepth,
	}
	return res, nil
}
