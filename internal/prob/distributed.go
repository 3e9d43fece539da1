package prob

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/obs"
)

// Distributed compilation (§4.4): the decision tree is split into jobs of
// depth d (Options.JobDepth). A worker explores a fragment from its root;
// whenever it crosses a depth-d boundary it forks a continuation job instead
// of descending. As in the paper, a job ships the mask at job creation (a
// snapshot of the per-node mask array) together with its branch probability
// and error budgets; bounds are merged in the shared boundsBook and residual
// budgets synchronise through a shared pool at job start and end. The queue
// applies backpressure: when enough jobs are pending, workers descend past
// the boundary locally instead of forking, bounding queue memory.

type job struct {
	snap *fsnap
	oi   int
	p    float64
	E    []float64
}

type workQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	jobs        []job
	outstanding int
	closed      bool
	maxPending  int
	// stop mirrors the runner's abort flag into the wait loop: without it a
	// cancelled CompileCtx left workers parked on cond.Wait until the queue
	// drained naturally. Nil means no external abort source.
	stop *atomic.Bool
	// depth publishes the pending-job count as prob.queue.depth; nil-safe.
	depth *obs.Gauge
}

func newWorkQueue(maxPending int, stop *atomic.Bool) *workQueue {
	q := &workQueue{maxPending: maxPending, stop: stop}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) stopped() bool {
	return q.stop != nil && q.stop.Load()
}

// interrupt wakes every worker blocked in pop after the stop flag flipped.
// The empty critical section orders the flag write before the broadcast, so
// a worker is either not yet waiting (and re-checks the flag before Wait) or
// waiting (and is woken here); either way it drains promptly.
func (q *workQueue) interrupt() {
	q.mu.Lock()
	//lint:ignore SA2001 the lock pairs the stop-flag write with cond.Wait
	q.mu.Unlock()
	q.cond.Broadcast()
}

// hasRoom reports whether forking another job is worthwhile; racy reads are
// fine, this is only backpressure.
func (q *workQueue) hasRoom() bool {
	q.mu.Lock()
	room := len(q.jobs) < q.maxPending
	q.mu.Unlock()
	return room
}

// push enqueues a job.
func (q *workQueue) push(j job) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.outstanding++
	q.depth.Set(float64(len(q.jobs)))
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next job; ok is false once all work is finished or the
// stop flag aborted the compilation.
func (q *workQueue) pop() (job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 && !q.closed && !q.stopped() {
		q.cond.Wait()
	}
	if len(q.jobs) == 0 || q.stopped() {
		return job{}, false
	}
	j := q.jobs[len(q.jobs)-1]
	q.jobs[len(q.jobs)-1] = job{}
	q.jobs = q.jobs[:len(q.jobs)-1]
	q.depth.Set(float64(len(q.jobs)))
	return j, true
}

// done marks one job finished; when no work remains the queue closes and
// all waiting workers drain out.
func (q *workQueue) done() {
	q.mu.Lock()
	q.outstanding--
	if q.outstanding == 0 {
		q.closed = true
		q.mu.Unlock()
		q.cond.Broadcast()
		return
	}
	q.mu.Unlock()
}

// budgetPool redistributes residual error budgets between jobs.
type budgetPool struct {
	mu   sync.Mutex
	pool []float64
}

// deposit returns a job's residual budgets to the pool.
func (b *budgetPool) deposit(E []float64) {
	b.mu.Lock()
	if b.pool == nil {
		b.pool = make([]float64, len(E))
	}
	for i, e := range E {
		if e > 0 {
			b.pool[i] += e
		}
	}
	b.mu.Unlock()
}

// withdraw moves the whole pooled budget into E.
func (b *budgetPool) withdraw(E []float64) {
	b.mu.Lock()
	if b.pool != nil {
		for i := range E {
			E[i] += b.pool[i]
			b.pool[i] = 0
		}
	}
	b.mu.Unlock()
}

func (r *runner) runDistributed() Stats {
	// The pristine state provides the root job's masks; its initial pass
	// records targets decided without any assignment.
	tInit := time.Now()
	initSpan := r.span.Start("init")
	pristine := r.attach(newFstate(r.net, r.types, r.opts, r.bounds))
	pristine.initAll()
	initSpan.End()
	initDur := time.Since(tInit)

	tExplore := time.Now()
	dspan := r.span.Start("distribute")
	defer dspan.End()

	queue := newWorkQueue(4*r.opts.Workers, &r.stop)
	var forkedC, inlinedC *obs.Counter
	if reg := r.opts.Obs.Metrics(); reg != nil {
		queue.depth = reg.Gauge("prob.queue.depth")
		forkedC = reg.Counter("prob.jobs.forked")
		inlinedC = reg.Counter("prob.jobs.inlined")
	}
	// Publish the queue so the cancellation watcher can wake parked workers,
	// then re-check: the watcher may have fired before the queue existed.
	r.queue.Store(queue)
	if r.stop.Load() {
		queue.interrupt()
	}
	pool := &budgetPool{}
	E0 := make([]float64, len(r.net.Targets))
	if r.opts.Strategy.budgeted() {
		for i := range E0 {
			E0[i] = 2 * r.opts.Epsilon
		}
	}
	queue.push(job{snap: pristine.shareSnap(), oi: 0, p: 1, E: E0})

	type workerReport struct {
		id    int
		stats Stats
		busy  time.Duration
	}
	var wg sync.WaitGroup
	statsCh := make(chan workerReport, r.opts.Workers)
	for wi := 0; wi < r.opts.Workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wspan := dspan.Start("worker")
			wspan.SetTID(wi + 2)
			wspan.SetInt("id", int64(wi))
			defer wspan.End()
			var busy time.Duration
			s := r.attach(newFstate(r.net, r.types, r.opts, r.bounds))
			st := &s.stats
			w := &walker{state: s, run: r, forkDepth: r.opts.JobDepth}
			w.fork = func(oi int, p float64, E []float64) bool {
				if !queue.hasRoom() {
					inlinedC.Add(1)
					return false
				}
				forkedC.Add(1)
				queue.push(job{snap: s.forkSnap(), oi: oi, p: p,
					E: append([]float64(nil), E...)})
				return true
			}
			for {
				j, ok := queue.pop()
				if !ok {
					break
				}
				st.Jobs++
				t0 := time.Now()
				r.runJob(w, pool, j)
				busy += time.Since(t0)
				queue.done()
			}
			wspan.SetInt("jobs", st.Jobs)
			wspan.SetInt("branches", st.Branches)
			wspan.SetDuration("busy_ms", busy)
			statsCh <- workerReport{id: wi, stats: *st, busy: busy}
		}(wi)
	}
	wg.Wait()
	close(statsCh)
	var total Stats
	total.PerWorker = make([]WorkerStats, r.opts.Workers)
	for rep := range statsCh {
		st := rep.stats
		total.Branches += st.Branches
		total.Assignments += st.Assignments
		total.MaskUpdates += st.MaskUpdates
		total.BudgetPrunes += st.BudgetPrunes
		total.Jobs += st.Jobs
		if st.MaxDepth > total.MaxDepth {
			total.MaxDepth = st.MaxDepth
		}
		total.PerWorker[rep.id] = WorkerStats{Jobs: st.Jobs, Branches: st.Branches, Busy: rep.busy}
	}
	total.MaskUpdates += pristine.stats.MaskUpdates
	total.Timings.Init = initDur
	total.Timings.Explore = time.Since(tExplore)
	if reg := r.opts.Obs.Metrics(); reg != nil {
		for wi, ws := range total.PerWorker {
			reg.Gauge(fmt.Sprintf("prob.worker.%d.utilization", wi)).
				Set(ws.Utilization(total.Timings.Explore))
		}
	}
	return total
}

// runJob adopts the job's shipped masks, tops the budget up from the shared
// pool, explores the fragment, and deposits the residual budget.
func (r *runner) runJob(w *walker, pool *budgetPool, j job) {
	s := w.state
	if r.opts.Strategy.budgeted() {
		defer pool.deposit(j.E)
	}
	if r.stop.Load() || r.bounds.allTight() {
		return
	}
	if debugHook != nil {
		debugHook("job p=%g oi=%d open_targets=%d\n", j.p, j.oi, j.snap.openTargets)
	}
	s.adoptSnap(j.snap)
	w.localVars = 0
	if r.opts.Strategy.budgeted() {
		pool.withdraw(j.E)
	}
	w.dfs(0, j.oi, -1, false, j.p, j.E)
}

// runSimulated executes the distributed algorithm on the calling goroutine
// and schedules the measured job durations onto W virtual workers with an
// event-driven list scheduler: a job becomes ready when its forking job
// completes, and runs on the earliest-available worker. The resulting
// makespan lands in Stats.SimulatedMakespan. This mirrors the paper's own
// methodology ("timings reported for hybrid-d were obtained by simulating
// distributed computation on a single machine", §5).
func (r *runner) runSimulated() Stats {
	tInit := time.Now()
	initSpan := r.span.Start("init")
	pristine := r.attach(newFstate(r.net, r.types, r.opts, r.bounds))
	pristine.initAll()
	initSpan.End()
	initDur := time.Since(tInit)

	tExplore := time.Now()
	dspan := r.span.Start("distribute")
	dspan.SetStr("mode", "simulated")
	defer dspan.End()

	type simJob struct {
		job
		ready time.Duration
	}
	var stack []simJob
	pool := &budgetPool{}
	E0 := make([]float64, len(r.net.Targets))
	if r.opts.Strategy.budgeted() {
		for i := range E0 {
			E0[i] = 2 * r.opts.Epsilon
		}
	}
	stack = append(stack, simJob{
		job: job{snap: pristine.shareSnap(), oi: 0, p: 1, E: E0},
	})

	s := r.attach(newFstate(r.net, r.types, r.opts, r.bounds))
	st := &s.stats
	w := &walker{state: s, run: r, forkDepth: r.opts.JobDepth}
	workers := make([]time.Duration, r.opts.Workers)
	busyPer := make([]time.Duration, r.opts.Workers)
	jobsPer := make([]int64, r.opts.Workers)
	var forked []job
	maxPending := 4 * r.opts.Workers
	var forkedC, inlinedC *obs.Counter
	if reg := r.opts.Obs.Metrics(); reg != nil {
		forkedC = reg.Counter("prob.jobs.forked")
		inlinedC = reg.Counter("prob.jobs.inlined")
	}
	w.fork = func(oi int, p float64, E []float64) bool {
		if len(stack)+len(forked) >= maxPending {
			inlinedC.Add(1)
			return false
		}
		forkedC.Add(1)
		forked = append(forked, job{snap: s.forkSnap(), oi: oi, p: p,
			E: append([]float64(nil), E...)})
		return true
	}

	var makespan time.Duration
	for len(stack) > 0 {
		sj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.Jobs++
		forked = forked[:0]
		t0 := time.Now()
		r.runJob(w, pool, sj.job)
		dur := time.Since(t0)
		// Schedule onto the earliest-available worker, not before the
		// forking job finished.
		wi := 0
		for i := 1; i < len(workers); i++ {
			if workers[i] < workers[wi] {
				wi = i
			}
		}
		start := workers[wi]
		if sj.ready > start {
			start = sj.ready
		}
		end := start + dur
		workers[wi] = end
		busyPer[wi] += dur
		jobsPer[wi]++
		if end > makespan {
			makespan = end
		}
		for _, j := range forked {
			stack = append(stack, simJob{job: j, ready: end})
		}
	}
	st.SimulatedMakespan = makespan
	st.MaskUpdates += pristine.stats.MaskUpdates
	st.Timings.Init = initDur
	st.Timings.Explore = time.Since(tExplore)
	st.PerWorker = make([]WorkerStats, r.opts.Workers)
	for wi := range st.PerWorker {
		st.PerWorker[wi] = WorkerStats{Jobs: jobsPer[wi], Busy: busyPer[wi]}
	}
	dspan.SetInt("jobs", st.Jobs)
	dspan.SetDuration("virtual_makespan_ms", makespan)
	if reg := r.opts.Obs.Metrics(); reg != nil {
		for wi, ws := range st.PerWorker {
			reg.Gauge(fmt.Sprintf("prob.worker.%d.utilization", wi)).
				Set(ws.Utilization(makespan))
		}
	}
	return *st
}
