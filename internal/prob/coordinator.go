package prob

import (
	"context"
	"fmt"
	"time"

	"enframe/internal/network"
	"enframe/internal/obs"
)

// CompileExec compiles the network by shipping depth-d decision-tree jobs to
// a JobExecutor — the multi-process twin of CompileCtx's in-process
// distributed runner. The executor may be local (NewLocalExecutor), a remote
// worker pool (internal/dist), or a MultiExecutor mix.
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
	budgeted := opts.Strategy.budgeted()

	span := opts.Obs.Root().Start("compile")
	defer span.End()
	span.SetStr("strategy", opts.Strategy.String())
	span.SetStr("mode", "executor")
	span.SetInt("targets", int64(len(net.Targets)))
	span.SetInt("nodes", int64(net.NumNodes()))

	tOrder := time.Now()
	order := computeOrder(net, opts)
	orderDur := time.Since(tOrder)

	// The coordinator owns the authoritative book. The initial bottom-up
	// pass credits targets decided without any assignment, exactly as the
	// sequential run does first; job streams follow in merge order.
	book := newBoundsBook(len(net.Targets), eps2)
	tInit := time.Now()
	initSpan := span.Start("init")
	init := newFstate(net, types, opts, book)
	init.attachRun(order, time.Time{}, nil, nil)
	init.initAll()
	initSpan.End()
	initDur := time.Since(tInit)

	tExplore := time.Now()
	dspan := span.Start("distribute")
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

	E0 := make([]float64, len(net.Targets))
	if budgeted {
		for i := range E0 {
			E0[i] = 2 * opts.Epsilon
		}
	}
	jobs := map[uint64]*cjob{0: {wj: &WireJob{ID: 0, P: 1, E: E0}}}
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
					book.add(int(it.Target), it.IsTrue, it.Mass)
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

	var deadline time.Time
	var deadlineCh <-chan time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
		t := time.NewTimer(opts.Timeout)
		defer t.Stop()
		deadlineCh = t.C
	}

	var total Stats
	var firstErr error
	timedOut := false
	inflight := 0
	ctxDone := ctx.Done()

	for {
		if firstErr == nil && !timedOut {
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
				if eps2 > 0 && book.allTight() {
					cj.state = jSkipped
					continue
				}
				if !deadline.IsZero() {
					rem := time.Until(deadline)
					if rem <= 0 {
						timedOut = true
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
		if firstErr != nil || timedOut {
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
				if firstErr == nil && !timedOut && ctx.Err() == nil {
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
				timedOut = true
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
			if st.MaxDepth > total.MaxDepth {
				total.MaxDepth = st.MaxDepth
			}
			total.Jobs++
			merge()
		case <-deadlineCh:
			timedOut = true
			deadlineCh = nil
		case <-ctxDone:
			if firstErr == nil {
				firstErr = fmt.Errorf("prob: compile: %w", ctx.Err())
			}
			cancelRun()
			ctxDone = nil
		}
	}

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("prob: compile: %w", err)
	}
	merge()

	total.MaskUpdates += init.stats.MaskUpdates
	total.MaskWords = int64(bitsetWords(net.NumNodes()))
	total.BatchTargets = int64(len(net.Targets))
	total.NetworkNodes = net.NumNodes()
	total.Timings.Order = orderDur
	total.Timings.Init = initDur
	total.Timings.Explore = time.Since(tExplore)
	total.Duration = orderDur + initDur + total.Timings.Explore
	dspan.SetInt("jobs", total.Jobs)
	span.SetInt("branches", total.Branches)
	span.SetInt("max_depth", total.MaxDepth)
	if reg := opts.Obs.Metrics(); reg != nil {
		reg.Counter("prob.branches").Add(total.Branches)
		reg.Counter("prob.assignments").Add(total.Assignments)
		reg.Counter("prob.mask_updates").Add(total.MaskUpdates)
		reg.Counter("prob.budget_prunes").Add(total.BudgetPrunes)
		reg.Counter("prob.jobs").Add(total.Jobs)
		reg.Counter("prob.mask_words").Add(total.MaskWords)
		reg.Counter("prob.batch_targets").Add(total.BatchTargets)
		reg.Gauge("prob.tree.max_depth").SetMax(float64(total.MaxDepth))
	}

	lo, hi := book.snapshot()
	res := &Result{Stats: total, TimedOut: timedOut}
	for i, t := range net.Targets {
		res.Targets = append(res.Targets, clampBound(t.Name, lo[i], hi[i]))
	}
	return res, nil
}
