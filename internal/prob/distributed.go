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
//
// The queue also keeps a job log — who forked each job, how long it ran,
// how many branches it visited — from which listSchedule derives the
// virtual makespan of a simulated run (Options.SimulateWorkers: the same
// runner on one goroutine). CompileExec's coordinator (coordinator.go) is the
// multi-process counterpart.

type job struct {
	snap *fblock
	oi   int
	p    float64
	E    []float64
	// parent is the log index of the job that forked this one (-1 for the
	// root); id is the job's own log index, assigned when it is popped.
	parent, id int
}

// jobRecord is one entry of the queue's job log, in the order jobs start.
type jobRecord struct {
	parent   int // log index of the forking job; -1 for the root
	dur      time.Duration
	branches int64
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
	// log records every popped job; read it only after the workers exit.
	log []jobRecord
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

// pop blocks for the next job and opens its log record; ok is false once
// all work is finished or the stop flag aborted the compilation.
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
	j.id = len(q.log)
	q.log = append(q.log, jobRecord{parent: j.parent})
	return j, true
}

// done marks job id finished after dur and branches of work; when no work
// remains the queue closes and all waiting workers drain out.
func (q *workQueue) done(id int, dur time.Duration, branches int64) {
	q.mu.Lock()
	q.log[id].dur, q.log[id].branches = dur, branches
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

// runDistributed explores the decision tree as depth-d jobs on the work
// queue: Workers goroutines share it, or — with SimulateWorkers — one
// goroutine runs every job and listSchedule places the logged jobs on Workers
// virtual workers. The queue pops LIFO and a fork pushes at once, so a
// single goroutine runs jobs in depth-first order under the same 4·Workers
// backpressure as a real cluster.
func (r *runner) runDistributed() Stats {
	// The pristine state provides the root job's masks; its initial pass
	// records targets decided without any assignment.
	pristine := r.initPass(nil, true)

	tExplore := time.Now()
	dspan := r.span.Start("distribute")
	defer dspan.End()
	goroutines := r.opts.Workers
	if r.opts.SimulateWorkers {
		goroutines = 1
		dspan.SetStr("mode", "simulated")
	}

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
	queue.push(job{snap: pristine.takeBlock(), p: 1, E: r.rootBudget(), parent: -1})

	type workerReport struct {
		id    int
		stats Stats
		busy  time.Duration
	}
	var wg sync.WaitGroup
	statsCh := make(chan workerReport, goroutines)
	for wi := 0; wi < goroutines; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			wspan := dspan.Start("worker")
			wspan.SetTID(wi + 2)
			wspan.SetInt("id", int64(wi))
			defer wspan.End()
			var busy time.Duration
			s := r.attach(pristine.worker(r.bounds))
			defer s.release()
			st := &s.stats
			w := &walker{state: s, run: r, forkDepth: r.opts.JobDepth}
			cur := -1 // log index of the running job
			w.fork = func(oi int, p float64, E []float64) bool {
				if !queue.hasRoom() {
					inlinedC.Add(1)
					return false
				}
				forkedC.Add(1)
				queue.push(job{snap: s.forkSnap(), oi: oi, p: p,
					E: append([]float64(nil), E...), parent: cur})
				return true
			}
			for {
				j, ok := queue.pop()
				if !ok {
					break
				}
				st.Jobs++
				cur = j.id
				b0, t0 := st.Branches, time.Now()
				r.runJob(w, pool, j)
				dur := time.Since(t0)
				busy += dur
				queue.done(j.id, dur, st.Branches-b0)
			}
			wspan.SetInt("jobs", st.Jobs)
			wspan.SetInt("branches", st.Branches)
			wspan.SetDuration("busy_ms", busy)
			statsCh <- workerReport{id: wi, stats: *st, busy: busy}
		}(wi)
	}
	wg.Wait()
	close(statsCh)
	for _, j := range queue.jobs { // left behind by a stop
		putBlock(j.snap)
	}
	var total Stats
	total.PerWorker = make([]WorkerStats, goroutines)
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
	total.Timings.Explore = time.Since(tExplore)
	horizon := total.Timings.Explore
	if r.opts.SimulateWorkers {
		total.SimulatedMakespan, total.PerWorker = listSchedule(queue.log, r.opts.Workers)
		horizon = total.SimulatedMakespan
		dspan.SetDuration("virtual_makespan_ms", horizon)
	}
	dspan.SetInt("jobs", total.Jobs)
	if reg := r.opts.Obs.Metrics(); reg != nil {
		for wi, ws := range total.PerWorker {
			reg.Gauge(fmt.Sprintf("prob.worker.%d.utilization", wi)).
				Set(ws.Utilization(horizon))
		}
	}
	return total
}

// listSchedule places a job log on W virtual workers with an event-driven
// list scheduler — each job, in log order, runs on the earliest-available
// worker (ties to the lowest index) but not before the job that forked it
// ended — and returns the makespan and each worker's jobs, branches and
// virtual busy time. This mirrors the paper's own methodology: "timings
// reported for hybrid-d were obtained by simulating distributed computation
// on a single machine" (§5).
func listSchedule(log []jobRecord, workers int) (time.Duration, []WorkerStats) {
	free := make([]time.Duration, workers) // when each worker next idles
	end := make([]time.Duration, len(log))
	per := make([]WorkerStats, workers)
	var makespan time.Duration
	for i, rec := range log {
		wi := 0
		for k := 1; k < workers; k++ {
			if free[k] < free[wi] {
				wi = k
			}
		}
		start := free[wi]
		if rec.parent >= 0 && end[rec.parent] > start {
			start = end[rec.parent]
		}
		end[i] = start + rec.dur
		free[wi] = end[i]
		per[wi].Jobs++
		per[wi].Branches += rec.branches
		per[wi].Busy += rec.dur
		makespan = max(makespan, end[i])
	}
	return makespan, per
}

// runJob adopts the job's shipped masks, tops the budget up from the shared
// pool, explores the fragment, and deposits the residual budget.
func (r *runner) runJob(w *walker, pool *budgetPool, j job) {
	s := w.state
	if r.opts.Strategy.budgeted() {
		defer pool.deposit(j.E)
	}
	if r.stop.Load() || r.bounds.allTight() {
		putBlock(j.snap)
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
