package prob

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the concurrency contracts of the distributed runner's two
// shared structures. They are written to be meaningful under the race
// detector: multiple goroutines hammer the same queue/pool concurrently.

// TestWorkQueueDrains models the real worker protocol — each popped job may
// fork children before done() — and checks every job is processed exactly
// once and the queue closes exactly when the last job finishes.
func TestWorkQueueDrains(t *testing.T) {
	q := newWorkQueue(1<<30, nil) // no backpressure: every fork enqueues
	var forksLeft atomic.Int64
	forksLeft.Store(500)
	var processed atomic.Int64

	q.push(job{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := q.pop()
				if !ok {
					return
				}
				// Fork up to two children per job while the budget lasts,
				// like a worker crossing depth boundaries.
				for c := 0; c < 2; c++ {
					if forksLeft.Add(-1) >= 0 {
						q.push(job{})
					}
				}
				processed.Add(1)
				q.done(j.id, 0, 0)
			}
		}()
	}
	wg.Wait()
	if got := processed.Load(); got != 501 {
		t.Fatalf("processed %d jobs, want 501 (root + 500 forks)", got)
	}
	// After close, pop must return immediately with ok=false.
	if _, ok := q.pop(); ok {
		t.Fatal("pop succeeded on a closed empty queue")
	}
}

// TestWorkQueueBackpressure: hasRoom must flip to false once maxPending
// jobs queue up, and recover as jobs are popped.
func TestWorkQueueBackpressure(t *testing.T) {
	q := newWorkQueue(2, nil)
	if !q.hasRoom() {
		t.Fatal("empty queue reports no room")
	}
	q.push(job{})
	if !q.hasRoom() {
		t.Fatal("queue of 1/2 reports no room")
	}
	q.push(job{})
	if q.hasRoom() {
		t.Fatal("full queue reports room")
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed on non-empty queue")
	}
	if !q.hasRoom() {
		t.Fatal("no room after a pop made space")
	}
}

// TestWorkQueuePopBlocksUntilPush: a pop on an empty open queue must block,
// then wake when work arrives.
func TestWorkQueuePopBlocksUntilPush(t *testing.T) {
	q := newWorkQueue(4, nil)
	got := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		got <- ok
	}()
	select {
	case <-got:
		t.Fatal("pop returned on an empty open queue")
	case <-time.After(20 * time.Millisecond):
	}
	q.push(job{})
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("pop woke with ok=false despite pending job")
		}
	case <-time.After(time.Second):
		t.Fatal("pop did not wake on push")
	}
}

// TestWorkQueueLIFO: within one worker the queue pops the most recently
// pushed job first (depth-first exploration keeps mask snapshots small).
func TestWorkQueueLIFO(t *testing.T) {
	q := newWorkQueue(8, nil)
	for i := 0; i < 3; i++ {
		q.push(job{oi: i})
	}
	for want := 2; want >= 0; want-- {
		j, ok := q.pop()
		if !ok || j.oi != want {
			t.Fatalf("pop = (%d, %v), want (%d, true)", j.oi, ok, want)
		}
	}
}

// TestBudgetPoolConservation: concurrent deposits and withdrawals must
// conserve the total budget per target exactly. Budgets are dyadic
// fractions, so float addition is exact and the totals compare with ==.
func TestBudgetPoolConservation(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		targets = 3
	)
	pool := &budgetPool{}
	fractions := []float64{0.5, 0.25, 0.125}

	totals := make([]float64, targets)    // what each worker deposits, summed
	tallies := make([][]float64, workers) // what each worker withdrew
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]float64, targets)
			deposited := make([]float64, targets)
			for r := 0; r < rounds; r++ {
				E := make([]float64, targets)
				for i := range E {
					E[i] = fractions[(w+r+i)%len(fractions)]
					deposited[i] += E[i]
				}
				pool.deposit(E)
				W := make([]float64, targets)
				pool.withdraw(W)
				for i := range W {
					local[i] += W[i]
				}
			}
			mu.Lock()
			tallies[w] = local
			for i := range deposited {
				totals[i] += deposited[i]
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	// Whatever was not withdrawn must still sit in the pool.
	remainder := make([]float64, targets)
	pool.withdraw(remainder)
	for i := 0; i < targets; i++ {
		var withdrawn float64
		for w := 0; w < workers; w++ {
			withdrawn += tallies[w][i]
		}
		if got := withdrawn + remainder[i]; got != totals[i] {
			t.Fatalf("target %d: withdrawn %v + remainder %v != deposited %v",
				i, withdrawn, remainder[i], totals[i])
		}
	}
}

// TestBudgetPoolSkipsNonPositive: exhausted (zero or negative) budget
// entries must not pollute the pool.
func TestBudgetPoolSkipsNonPositive(t *testing.T) {
	pool := &budgetPool{}
	pool.deposit([]float64{0.5, 0, -0.25})
	got := make([]float64, 3)
	pool.withdraw(got)
	if got[0] != 0.5 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("withdraw = %v, want [0.5 0 0]", got)
	}
}

// TestBudgetPoolWithdrawBeforeDeposit: withdrawing from a never-used pool
// is a no-op, not a nil-slice panic.
func TestBudgetPoolWithdrawBeforeDeposit(t *testing.T) {
	pool := &budgetPool{}
	E := []float64{0.125, 0.25}
	pool.withdraw(E)
	if E[0] != 0.125 || E[1] != 0.25 {
		t.Fatalf("withdraw on empty pool mutated E: %v", E)
	}
}
