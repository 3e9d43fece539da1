package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/dist"
)

// Regression tests for poolFor's locking: the original implementation held
// poolsMu across dist.NewPool's TCP dials, so one slow or hung dial
// serialised every remote request on the server — including requests naming
// completely different worker sets. Dials now single-flight per address set
// outside the lock.

// TestPoolForSlowDialDoesNotBlockOtherSets: while one address set's dial is
// stuck, a request for a different set dials and completes immediately.
func TestPoolForSlowDialDoesNotBlockOtherSets(t *testing.T) {
	worker := startDistWorker(t)
	s := New(Config{})

	slowGate := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookPoolDial = func(key string) {
		if strings.Contains(key, "127.0.0.1:1") {
			entered <- struct{}{}
			<-slowGate
		}
	}
	defer func() { testHookPoolDial = nil }()

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = s.poolFor(ctx, []string{"127.0.0.1:1"}) // dead port; error expected
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	p, err := s.poolFor(ctx, []string{worker})
	if err != nil {
		t.Fatalf("poolFor(other set) while slow dial in flight: %v", err)
	}
	defer p.Close()
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("poolFor(other set) took %v — blocked behind the slow dial", elapsed)
	}

	close(slowGate)
	select {
	case <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("slow-dial leader never returned")
	}
}

// TestPoolForSingleFlight: concurrent requests for one address set share one
// dial.
func TestPoolForSingleFlight(t *testing.T) {
	worker := startDistWorker(t)
	s := New(Config{})

	var dials atomic.Int32
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookPoolDial = func(string) {
		dials.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	defer func() { testHookPoolDial = nil }()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, errs[i] = s.poolFor(ctx, []string{worker})
		}(i)
	}
	<-entered
	// Give the other callers time to reach poolFor and queue as waiters.
	time.Sleep(100 * time.Millisecond)
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials in flight, want 1 (single-flight broken)", got)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Errorf("%d dials total, want 1", got)
	}
	s.poolsMu.Lock()
	p := s.pools.byKey[worker]
	s.poolsMu.Unlock()
	if p == nil {
		t.Fatal("pool not cached after single-flight dial")
	}
	_ = p.Close()
}

// TestPoolForWaiterHonoursContext: a waiter whose context dies while the
// leader is still dialing unblocks immediately with the context error.
func TestPoolForWaiterHonoursContext(t *testing.T) {
	s := New(Config{})

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookPoolDial = func(string) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	defer func() { testHookPoolDial = nil }()

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _ = s.poolFor(ctx, []string{"127.0.0.1:1"})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	_, err := s.poolFor(ctx, []string{"127.0.0.1:1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("canceled waiter took %v to unblock", elapsed)
	}

	close(gate)
	select {
	case <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never returned")
	}
}

// TestPoolForLeaderPanicReleasesTheKey: a dial that panics answers its
// caller with a *core.PanicError and unregisters the dial, so the next
// request for the same worker set dials afresh instead of waiting out its
// deadline on a call nobody will finish.
func TestPoolForLeaderPanicReleasesTheKey(t *testing.T) {
	s := New(Config{})
	var once sync.Once
	testHookPoolDial = func(string) { once.Do(func() { panic("dial hook") }) }
	defer func() { testHookPoolDial = nil }()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var pe *core.PanicError
	func() {
		defer func() { _ = recover() }() // a leader may also re-panic to serve's recover
		if _, err := s.poolFor(ctx, []string{"127.0.0.1:1"}); !errors.As(err, &pe) {
			t.Errorf("panicking dial: err = %v, want *core.PanicError", err)
		}
	}()
	t0 := time.Now()
	_, err := s.poolFor(ctx, []string{"127.0.0.1:1"}) // dead port; a dial error is expected
	if errors.As(err, &pe) || ctx.Err() != nil {
		t.Fatalf("second dial: err = %v, ctx %v", err, ctx.Err())
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("second dial took %v — blocked on the panicked call", elapsed)
	}
}

// TestShutdownClosesLateDialedPool: a dial that finishes after Shutdown
// closed the server's pools does not leave its pool cached and open; the
// memo closes it on arrival.
func TestShutdownClosesLateDialedPool(t *testing.T) {
	worker := startDistWorker(t)
	s := New(Config{})

	release := make(chan struct{})
	entered := make(chan struct{})
	testHookPoolDial = func(string) {
		close(entered)
		<-release
	}
	defer func() { testHookPoolDial = nil }()

	type dialed struct {
		p   *dist.Pool
		err error
	}
	done := make(chan dialed, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p, err := s.poolFor(ctx, []string{worker})
		done <- dialed{p, err}
	}()
	<-entered
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(release)
	var d dialed
	select {
	case d = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("late dial never returned")
	}
	if d.err != nil {
		t.Fatalf("late dial: %v", d.err)
	}
	s.poolsMu.Lock()
	cached := len(s.pools.byKey)
	s.poolsMu.Unlock()
	if cached != 0 {
		t.Errorf("%d pools cached after Shutdown, want 0", cached)
	}
	if n := d.p.AliveWorkers(); n != 0 {
		t.Errorf("late-dialed pool has %d live workers after Shutdown, want 0 (closed)", n)
	}
}
