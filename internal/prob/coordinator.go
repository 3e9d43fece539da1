package prob

import (
	"context"
	"fmt"
	"time"

	"enframe/internal/network"
	"enframe/internal/obs"
)

// CompileExec compiles the network by shipping depth-d decision-tree jobs to
// a JobExecutor — a local Session (NewLocalExecutor) or a remote worker pool
// (internal/dist). It is compile's executor mode: order, init pass, deadline,
// cancellation and the epilogue are the in-process runs'; runExec below is
// only the dispatch and ordered-merge loop.
//
// Determinism and idempotence: each job returns an ordered stream of bound
// contributions with fork markers; the coordinator splices child streams at
// their markers, reproducing the exact add order of a sequential run, so
// exact-strategy marginals are bit-identical to Compile with Workers=1. A
// job's error budget is withdrawn from the shared pool once, at first
// dispatch, and travels with the job across retries; residuals are deposited
// once per accepted completion. Re-executed jobs (after a worker death)
// therefore reproduce the identical result and the ε-contract
// Upper−Lower ≤ 2ε survives worker loss.
func CompileExec(ctx context.Context, net *network.Net, opts Options, exec JobExecutor) (*Result, error) {
	_, res, err := compile(ctx, net, opts, false, exec)
	return res, err
}

// runExec dispatches jobs to exec and merges their item streams into the
// runner's bounds book. The book is authoritative: the init pass credits the
// targets decided without any assignment, exactly as the sequential run does
// first, and job streams follow in merge order. A job failure returns an
// error; cancellation and timeout end the run with the runner's flags set,
// for compile's epilogue to report.
func (r *runner) runExec(ctx context.Context, exec JobExecutor) (Stats, error) {
	init := r.initPass(nil, false)
	budgeted := r.opts.Strategy.budgeted()

	tExplore := time.Now()
	dspan := r.span.Start("distribute")
	defer dspan.End()

	const (
		jPending = iota
		jInflight
		jDone
		jSkipped
	)
	type cjob struct {
		wj        *WireJob
		res       *WireResult
		children  []uint64
		state     uint8
		withdrawn bool
	}

	jobs := map[uint64]*cjob{0: {wj: &WireJob{ID: 0, P: 1, E: r.rootBudget()}}}
	pending := []uint64{0}
	nextID := uint64(1)
	pool := &budgetPool{}

	// Ordered merge: an explicit stack of (job, item-index) frames walks the
	// item streams depth-first, descending into a child at its fork marker
	// and pausing whenever the next needed result has not arrived yet.
	type mergeFrame struct {
		id   uint64
		item int
	}
	mstack := []mergeFrame{{id: 0}}
	merge := func() {
		for len(mstack) > 0 {
			f := &mstack[len(mstack)-1]
			cj := jobs[f.id]
			if cj.state == jSkipped {
				mstack = mstack[:len(mstack)-1]
				continue
			}
			if cj.state != jDone {
				return
			}
			descended := false
			for f.item < len(cj.res.Items) {
				it := cj.res.Items[f.item]
				f.item++
				if it.Kind == ItemAdd {
					r.bounds.add(int(it.Target), it.IsTrue, it.Mass)
					continue
				}
				mstack = append(mstack, mergeFrame{id: cj.children[it.Fork]})
				descended = true
				break
			}
			if !descended {
				mstack = mstack[:len(mstack)-1]
			}
		}
	}

	type execDone struct {
		id  uint64
		res *WireResult
		err error
	}
	resCh := make(chan execDone, 16)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var deadlineCh <-chan time.Time
	if !r.deadline.IsZero() {
		t := time.NewTimer(time.Until(r.deadline))
		defer t.Stop()
		deadlineCh = t.C
	}
	// timeout ends dispatch with the bounds merged so far.
	timeout := func() {
		r.timedOut.Store(true)
		r.stop.Store(true)
	}

	var total Stats
	var firstErr error
	inflight := 0
	ctxDone := ctx.Done()

	for {
		// r.stop is set by a timeout, or by cancellation (here or in
		// compile's watcher).
		if firstErr == nil && !r.stop.Load() {
			for len(pending) > 0 {
				slots := exec.Slots()
				if slots < 1 {
					if inflight == 0 {
						firstErr = fmt.Errorf("prob: compile: %w", ErrExecutorUnavailable)
					}
					break
				}
				if inflight >= slots {
					break
				}
				id := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				cj := jobs[id]
				// Once every target is within 2ε the remaining subtrees
				// cannot improve the contract; skip them. Exact runs
				// (eps2 = 0) never skip, preserving bit-identity.
				if r.bounds.eps2 > 0 && r.bounds.allTight() {
					cj.state = jSkipped
					continue
				}
				if !r.deadline.IsZero() {
					rem := time.Until(r.deadline)
					if rem <= 0 {
						timeout()
						pending = append(pending, id)
						break
					}
					cj.wj.Timeout = rem
				}
				if budgeted && !cj.withdrawn {
					pool.withdraw(cj.wj.E)
					cj.withdrawn = true
				}
				cj.state = jInflight
				inflight++
				go func(id uint64, wj *WireJob) {
					// Per-job span carried on the context: a pool executor
					// propagates its trace context to the worker and splices
					// the remote subtree back underneath. Nil (tracing off)
					// flows through every call without allocating.
					jspan := dspan.Start("job")
					jspan.SetInt("id", int64(id))
					jspan.SetInt("depth", int64(len(wj.Path)))
					res, err := exec.ExecuteJob(obs.ContextWithSpan(runCtx, jspan), wj)
					if res != nil {
						jspan.SetInt("items", int64(len(res.Items)))
						jspan.SetInt("forks", int64(len(res.Forks)))
					}
					jspan.End()
					resCh <- execDone{id: id, res: res, err: err}
				}(id, cj.wj)
			}
		}
		if firstErr != nil || r.stop.Load() {
			for _, id := range pending {
				jobs[id].state = jSkipped
			}
			pending = pending[:0]
		}
		if inflight == 0 {
			if len(pending) == 0 {
				break
			}
			continue // re-enter dispatch (or the skip branch above)
		}
		select {
		case d := <-resCh:
			inflight--
			cj := jobs[d.id]
			if d.err != nil {
				if firstErr == nil && !r.stop.Load() && ctx.Err() == nil {
					firstErr = fmt.Errorf("prob: compile: %w", d.err)
					cancelRun()
				}
				cj.state = jSkipped
				continue
			}
			cj.state = jDone
			cj.res = d.res
			if budgeted && len(d.res.Residual) > 0 {
				pool.deposit(d.res.Residual)
			}
			if d.res.TimedOut {
				timeout()
			}
			cj.children = make([]uint64, len(d.res.Forks))
			for k := range d.res.Forks {
				fk := d.res.Forks[k]
				cid := nextID
				nextID++
				cj.children[k] = cid
				jobs[cid] = &cjob{wj: &WireJob{ID: cid, Path: fk.Path, OI: fk.OI, P: fk.P, E: fk.E}}
			}
			// LIFO with children reversed: the leftmost child runs first,
			// keeping dispatch close to sequential DFS order so the merge
			// stack rarely stalls.
			for k := len(cj.children) - 1; k >= 0; k-- {
				pending = append(pending, cj.children[k])
			}
			st := d.res.Stats
			total.Branches += st.Branches
			total.Assignments += st.Assignments
			total.MaskUpdates += st.MaskUpdates
			total.BudgetPrunes += st.BudgetPrunes
			total.MaxDepth = max(total.MaxDepth, st.MaxDepth)
			total.Jobs++
			merge()
		case <-deadlineCh:
			timeout()
			deadlineCh = nil
		case <-ctxDone:
			r.canceled.Store(true)
			r.stop.Store(true)
			cancelRun()
			ctxDone = nil
		}
	}

	if firstErr != nil {
		return Stats{}, firstErr
	}
	if ctx.Err() != nil {
		// Cancelled after the last result: compile reports ctx's error.
		r.canceled.Store(true)
	}
	merge()

	total.MaskUpdates += init.stats.MaskUpdates
	total.Timings.Explore = time.Since(tExplore)
	dspan.SetInt("jobs", total.Jobs)
	return total, nil
}
