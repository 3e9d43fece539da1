package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is what a Flight's leader records when the work it led
// panicked: the leader recovers, frees its key and answers itself and every
// waiter with this error instead of leaving them blocked forever on a key
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

// Memo is the store of computed values in front of which a Flight runs. Its
// owner decides what it keeps; the Flight calls both methods with the
// owner's lock held.
type Memo[K comparable, V any] interface {
	// Get returns the value kept for key. It may drop a kept value that can
	// no longer serve, and then reports false.
	Get(key K) (V, bool)
	// Keep is offered each value a leader computed without error; the memo
	// keeps it or not.
	Keep(key K, v V)
}

// Outcome is how Flight.Do resolved its key: Miss when this call led (ran
// the work), Hit when the memo had the value, Coalesced when this call
// waited on a concurrent leader and shares its answer.
type Outcome uint8

const (
	Miss Outcome = iota
	Hit
	Coalesced
)

func (o Outcome) String() string { return [...]string{"miss", "hit", "coalesced"}[o] }

// Flight is a keyed single-flight in front of a Memo: per key, at most one
// call — the leader — runs the work at a time, and calls that arrive
// meanwhile wait for its answer. The contract:
//
//   - a waiter whose own ctx ends returns ctx.Err() at once; the leader runs
//     on;
//   - a leader whose work panics answers itself and every waiter with the
//     same *PanicError, and frees the key;
//   - a failure is never kept; a success is kept only if the Memo keeps it;
//   - a waiter retries, possibly as the new leader, only when the leader
//     failed and the leader's own ctx had ended by then; every other answer,
//     failure included, is shared.
//
// A hit costs one lock, the memo's lookup and no allocation.
type Flight[K comparable, V any] struct {
	op   string
	mu   *sync.Mutex
	memo Memo[K, V]
	// calls lists the calls in flight. They are few — at most one per
	// admitted request — and a map would cost every artifact's circuit
	// flight two allocations for its one trace.
	calls *flightCall[K, V]
}

type flightCall[K comparable, V any] struct {
	key   K
	next  *flightCall[K, V]
	done  chan struct{}
	val   V
	err   error
	retry bool // the leader failed after its own ctx had ended
}

// NewFlight returns a Flight in front of memo, which mu guards: the owner
// holds mu to read memo outside Do. op names the work in a *PanicError.
func NewFlight[K comparable, V any](op string, mu *sync.Mutex, memo Memo[K, V]) Flight[K, V] {
	return Flight[K, V]{op: op, mu: mu, memo: memo}
}

// Do returns the value for key: the memo's, a concurrent leader's, or, as
// the leader, what work returns. ctx bounds the wait; it is also what a
// waiter judges the leader's failure by, so a leader passes the ctx its work
// runs under.
func (f *Flight[K, V]) Do(ctx context.Context, key K, work func() (V, error)) (V, Outcome, error) {
	for {
		f.mu.Lock()
		if v, ok := f.memo.Get(key); ok {
			f.mu.Unlock()
			return v, Hit, nil
		}
		c := f.calls
		for c != nil && c.key != key {
			c = c.next
		}
		if c == nil {
			c = &flightCall[K, V]{key: key, next: f.calls, done: make(chan struct{})}
			f.calls = c
			f.mu.Unlock()
			f.lead(ctx, c, work)
			return c.val, Miss, c.err
		}
		f.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return *new(V), Coalesced, ctx.Err()
		}
		if !c.retry {
			return c.val, Coalesced, c.err
		}
		if err := ctx.Err(); err != nil {
			return *new(V), Coalesced, err
		}
	}
}

// lead runs work for c, offers a success to the memo, unlists c and
// releases its waiters — also when work panics.
func (f *Flight[K, V]) lead(ctx context.Context, c *flightCall[K, V], work func() (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.val, c.err = *new(V), NewPanicError(f.op, r)
		} else {
			c.retry = c.err != nil && ctx.Err() != nil
		}
		f.mu.Lock()
		p := &f.calls
		for *p != c {
			p = &(*p).next
		}
		*p = c.next
		if c.err == nil {
			f.memo.Keep(c.key, c.val)
		}
		f.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = work()
}
