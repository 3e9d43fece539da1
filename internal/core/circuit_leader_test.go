package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

// doneSpy reports on entered (buffered; a full buffer drops the report) when
// Done is called. A Circuit waiter's first call to it is on entering the
// select it then blocks in — which lets a test know, without sleeping, that a
// caller is waiting on the leader.
type doneSpy struct {
	context.Context
	entered chan<- struct{}
}

func (c doneSpy) Done() <-chan struct{} {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

type circuitResult struct {
	res    *prob.Result
	cached bool
	err    error
}

// TestCircuitLeaderPanicReleasesWaiters is the wedged-key regression: a
// trace that panics must release every coalesced waiter with a *PanicError,
// leave nothing registered so the next call re-leads, and leak no goroutine.
func TestCircuitLeaderPanicReleasesWaiters(t *testing.T) {
	ctx := context.Background()
	art, err := PrepareContext(ctx, smallSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	leading, release := make(chan struct{}), make(chan struct{})
	testHookTrace = func() {
		close(leading)
		<-release
		panic("boom")
	}
	t.Cleanup(func() { testHookTrace = nil })

	const waiters = 3
	results := make(chan circuitResult, 1+waiters) // one send per caller
	call := func(ctx context.Context) {
		_, res, cached, err := art.Circuit(ctx, prob.Options{})
		results <- circuitResult{res, cached, err}
	}
	go call(ctx)
	<-leading
	waiting := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go call(doneSpy{ctx, waiting})
	}
	for i := 0; i < waiters; i++ {
		<-waiting
	}
	close(release)

	for i := 0; i < 1+waiters; i++ {
		select {
		case r := <-results:
			var pe *PanicError
			if !errors.As(r.err, &pe) {
				t.Fatalf("caller %d: err = %v, want *PanicError", i, r.err)
			}
			if pe.Op != "circuit trace" || pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Errorf("PanicError = {%q %v, %d stack bytes}", pe.Op, pe.Value, len(pe.Stack))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("caller %d still blocked after the leader panicked", i)
		}
	}

	testHookTrace = nil
	if _, _, cached, err := art.Circuit(ctx, prob.Options{}); err != nil || cached {
		t.Fatalf("call after the panic: cached=%v err=%v, want a fresh trace", cached, err)
	}
	if _, _, cached, err := art.Circuit(ctx, prob.Options{}); err != nil || !cached {
		t.Fatalf("second call after the panic: cached=%v err=%v, want a memo hit", cached, err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCircuitWaiterDoesNotInheritSoftTimeout: a leader whose own soft
// timeout cut its trace short must not hand the partial bounds to a waiter
// that asked for none, nor memoize them.
func TestCircuitWaiterDoesNotInheritSoftTimeout(t *testing.T) {
	ctx := context.Background()
	objs, space, err := lineage.Attach(data.Points(16, 5), lineage.Config{
		Scheme: lineage.Positive, GroupSize: 4, NumVars: 10, L: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	art, err := PrepareContext(ctx, Spec{
		Source: lang.KMedoidsSource, Objects: objs, Space: space,
		Params: []int{2, 2}, InitIndices: []int{0, 1}, Targets: []string{"Centre["},
	})
	if err != nil {
		t.Fatal(err)
	}

	leading, release := make(chan struct{}), make(chan struct{})
	testHookTrace = func() {
		testHookTrace = nil // the waiter re-leads through the hook's site
		close(leading)
		<-release
	}
	t.Cleanup(func() { testHookTrace = nil })

	leader := make(chan circuitResult, 1)
	go func() {
		// The deadline is checked every 1024 branches, so it fires at the
		// first check of any trace longer than that.
		_, res, cached, err := art.Circuit(ctx, prob.Options{Timeout: time.Nanosecond})
		leader <- circuitResult{res, cached, err}
	}()
	<-leading
	waiting := make(chan struct{}, 1)
	waiter := make(chan circuitResult, 1)
	go func() {
		_, res, cached, err := art.Circuit(doneSpy{ctx, waiting}, prob.Options{})
		waiter <- circuitResult{res, cached, err}
	}()
	<-waiting
	close(release)

	l, w := <-leader, <-waiter
	if l.err != nil || w.err != nil {
		t.Fatalf("leader err %v, waiter err %v", l.err, w.err)
	}
	if !l.res.TimedOut {
		t.Skipf("trace of %d branches finished before its first deadline check", l.res.Stats.Branches)
	}
	if w.res.TimedOut || w.cached {
		t.Fatalf("waiter got timed_out=%v cached=%v, want its own complete trace", w.res.TimedOut, w.cached)
	}
	for _, tb := range w.res.Targets {
		if tb.Gap() > 1e-9 {
			t.Fatalf("waiter's %s has open bounds [%v, %v]", tb.Name, tb.Lower, tb.Upper)
		}
	}
	if _, res, cached, err := art.Circuit(ctx, prob.Options{}); err != nil || !cached || res != w.res {
		t.Fatalf("after the waiter's trace: cached=%v err=%v shared=%v, want its memoized result", cached, err, res == w.res)
	}
}

// TestArtifactBytesCountsCircuits: the byte count covers the network from
// preparation on and grows by the circuit once one is memoized.
func TestArtifactBytesCountsCircuits(t *testing.T) {
	ctx := context.Background()
	art, err := PrepareContext(ctx, smallSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	bare := art.Bytes()
	if bare < int64(art.Net.NumNodes()) {
		t.Fatalf("Bytes() = %d for a %d-node network", bare, art.Net.NumNodes())
	}
	c, res, _, err := art.Circuit(ctx, prob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Complete() {
		t.Skip("boundary probabilities: circuit not memoized")
	}
	if got, want := art.Bytes(), bare+c.Bytes()+int64(len(res.Targets))*targetBoundBytes; got != want {
		t.Fatalf("Bytes() = %d with a memoized circuit, want %d", got, want)
	}
	fresh, err := PrepareContext(ctx, smallSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Bytes(); got != bare {
		t.Fatalf("Bytes() = %d for a fresh artifact of the same spec, want %d", got, bare)
	}
}
