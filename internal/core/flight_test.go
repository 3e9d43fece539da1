package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// testMemo is a Memo over a plain map that keeps the values keep accepts
// (all of them when keep is nil).
type testMemo struct {
	m    map[string]int
	keep func(int) bool
}

func (m *testMemo) Get(key string) (int, bool) {
	v, ok := m.m[key]
	return v, ok
}

func (m *testMemo) Keep(key string, v int) {
	if m.keep == nil || m.keep(v) {
		m.m[key] = v
	}
}

type flightResult struct {
	v   int
	out Outcome
	err error
}

// flightHarness drives one Flight: a leader it holds inside its work until
// released, and waiters it knows are blocked on that leader.
type flightHarness struct {
	t    *testing.T
	mu   sync.Mutex
	memo *testMemo
	f    Flight[string, int]
}

func newFlightHarness(t *testing.T) *flightHarness {
	h := &flightHarness{t: t, memo: &testMemo{m: map[string]int{}}}
	h.f = NewFlight[string, int]("test work", &h.mu, h.memo)
	return h
}

// do is one synchronous call whose work answers v, err.
func (h *flightHarness) do(ctx context.Context, key string, v int, err error) flightResult {
	got, out, gerr := h.f.Do(ctx, key, func() (int, error) { return v, err })
	return flightResult{got, out, gerr}
}

// lead starts a leader on key that runs work once released; it returns the
// release function and the leader's result channel.
func (h *flightHarness) lead(ctx context.Context, key string, work func() (int, error)) (func(), <-chan flightResult) {
	started, release := make(chan struct{}), make(chan struct{})
	res := make(chan flightResult, 1)
	go func() {
		v, out, err := h.f.Do(ctx, key, func() (int, error) {
			close(started)
			<-release
			return work()
		})
		res <- flightResult{v, out, err}
	}()
	<-started
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	h.t.Cleanup(free)
	return free, res
}

// wait starts n callers on key and returns once each is blocked on the
// leader; their work must never run.
func (h *flightHarness) wait(ctx context.Context, key string, n int) <-chan flightResult {
	return h.waitWith(ctx, key, n, func() (int, error) { return -1, errors.New("a waiter led") })
}

// waitWith is wait with the waiters' work: what they run if they retry as
// leaders.
func (h *flightHarness) waitWith(ctx context.Context, key string, n int, work func() (int, error)) <-chan flightResult {
	res := make(chan flightResult, n)
	waiting := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func() {
			v, out, err := h.f.Do(doneSpy{ctx, waiting}, key, work)
			res <- flightResult{v, out, err}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-waiting:
		case r := <-res:
			h.t.Fatalf("a waiter did not wait on the leader: %+v", r)
		}
	}
	return res
}

func (h *flightHarness) recv(res <-chan flightResult) flightResult {
	h.t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(10 * time.Second):
		h.t.Fatal("a call is still blocked")
		return flightResult{}
	}
}

// TestFlightContract holds Flight to each clause of its leader/waiter
// contract.
func TestFlightContract(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, h *flightHarness)
	}{
		{"one leader per key", func(t *testing.T, h *flightHarness) {
			release, leader := h.lead(bg, "a", func() (int, error) { return 7, nil })
			waiters := h.wait(bg, "a", 4)
			// Another key does not wait on a's leader.
			if r := h.do(bg, "b", 3, nil); r != (flightResult{3, Miss, nil}) {
				t.Fatalf("other key while a leads: %+v, want its own lead", r)
			}
			release()
			if r := h.recv(leader); r != (flightResult{7, Miss, nil}) {
				t.Fatalf("leader: %+v", r)
			}
			for i := 0; i < 4; i++ {
				if r := h.recv(waiters); r != (flightResult{7, Coalesced, nil}) {
					t.Fatalf("waiter %d: %+v, want the leader's value", i, r)
				}
			}
			if r := h.do(bg, "a", -1, nil); r != (flightResult{7, Hit, nil}) {
				t.Fatalf("after the flight: %+v, want a hit", r)
			}
		}},
		{"a waiter's own ctx ends its wait, not the leader", func(t *testing.T, h *flightHarness) {
			release, leader := h.lead(bg, "a", func() (int, error) { return 7, nil })
			ctx, cancel := context.WithCancel(bg)
			waiter := h.wait(ctx, "a", 1)
			cancel()
			if r := h.recv(waiter); r.err != context.Canceled {
				t.Fatalf("canceled waiter: %+v, want context.Canceled", r)
			}
			release()
			if r := h.recv(leader); r != (flightResult{7, Miss, nil}) {
				t.Fatalf("leader after its waiter left: %+v", r)
			}
			if r := h.do(bg, "a", -1, nil); r != (flightResult{7, Hit, nil}) {
				t.Fatalf("after the flight: %+v, want the leader's value kept", r)
			}
		}},
		{"a leader's panic reaches every waiter and frees the key", func(t *testing.T, h *flightHarness) {
			release, leader := h.lead(bg, "a", func() (int, error) { panic("boom") })
			waiters := h.wait(bg, "a", 3)
			release()
			var first *PanicError
			for i := 0; i < 4; i++ {
				var r flightResult
				if i == 0 {
					r = h.recv(leader)
				} else {
					r = h.recv(waiters)
				}
				var pe *PanicError
				if !errors.As(r.err, &pe) || pe.Op != "test work" || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Fatalf("call %d: %+v, want the leader's *PanicError", i, r)
				}
				if first == nil {
					first = pe
				} else if pe != first {
					t.Fatalf("call %d got a different *PanicError", i)
				}
			}
			if r := h.do(bg, "a", 5, nil); r != (flightResult{5, Miss, nil}) {
				t.Fatalf("after the panic: %+v, want a fresh lead", r)
			}
		}},
		{"a failure is never kept", func(t *testing.T, h *flightHarness) {
			fail := errors.New("fail")
			release, leader := h.lead(bg, "a", func() (int, error) { return 0, fail })
			waiters := h.wait(bg, "a", 2)
			release()
			if r := h.recv(leader); r.err != fail || r.out != Miss {
				t.Fatalf("leader: %+v", r)
			}
			for i := 0; i < 2; i++ {
				if r := h.recv(waiters); r.err != fail || r.out != Coalesced {
					t.Fatalf("waiter %d: %+v, want the leader's failure shared", i, r)
				}
			}
			if r := h.do(bg, "a", 5, nil); r != (flightResult{5, Miss, nil}) {
				t.Fatalf("after the failure: %+v, want a fresh lead", r)
			}
		}},
		{"a waiter retries only after a failure under the leader's ended ctx", func(t *testing.T, h *flightHarness) {
			// The leader's ctx ended and it failed, with an error that does
			// not wrap the ctx's: its waiter leads again.
			ctx, cancel := context.WithCancel(bg)
			release, leader := h.lead(ctx, "a", func() (int, error) { return 0, errors.New("dial reset") })
			waiter := h.waitWith(bg, "a", 1, func() (int, error) { return 9, nil })
			cancel()
			release()
			h.recv(leader)
			if r := h.recv(waiter); r != (flightResult{9, Miss, nil}) {
				t.Fatalf("waiter of a leader whose ctx ended: %+v, want its own lead", r)
			}

			// The leader's ctx is live and its error wraps a deadline: the
			// failure is shared.
			late := fmt.Errorf("nested dial: %w", context.DeadlineExceeded)
			release, leader = h.lead(bg, "b", func() (int, error) { return 0, late })
			waiters := h.wait(bg, "b", 1)
			release()
			h.recv(leader)
			if r := h.recv(waiters); r.err != late || r.out != Coalesced {
				t.Fatalf("waiter of a live leader's deadline error: %+v, want it shared", r)
			}

			// The leader's ctx ended but it succeeded: the value is shared.
			ctx, cancel = context.WithCancel(bg)
			release, leader = h.lead(ctx, "c", func() (int, error) { return 4, nil })
			waiters = h.wait(bg, "c", 1)
			cancel()
			release()
			h.recv(leader)
			if r := h.recv(waiters); r != (flightResult{4, Coalesced, nil}) {
				t.Fatalf("waiter of a leader that succeeded late: %+v, want its value", r)
			}
		}},
		{"only what the memo keeps stays kept", func(t *testing.T, h *flightHarness) {
			h.memo.keep = func(v int) bool { return v%2 == 0 }
			release, leader := h.lead(bg, "a", func() (int, error) { return 1, nil })
			waiters := h.wait(bg, "a", 1)
			release()
			h.recv(leader)
			if r := h.recv(waiters); r != (flightResult{1, Coalesced, nil}) {
				t.Fatalf("waiter of an unkept value: %+v, want it shared", r)
			}
			if r := h.do(bg, "a", 2, nil); r != (flightResult{2, Miss, nil}) {
				t.Fatalf("after an unkept value: %+v, want a fresh lead", r)
			}
			if r := h.do(bg, "a", -1, nil); r != (flightResult{2, Hit, nil}) {
				t.Fatalf("after a kept value: %+v, want a hit", r)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newFlightHarness(t)) })
	}
}

// TestFlightHitAllocatesNothing: a memo hit is a lock and a lookup.
func TestFlightHitAllocatesNothing(t *testing.T) {
	h := newFlightHarness(t)
	ctx := context.Background()
	h.do(ctx, "a", 1, nil)
	work := func() (int, error) { return -1, nil }
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = h.f.Do(ctx, "a", work) }); allocs != 0 {
		t.Fatalf("a hit allocates %.0f/op", allocs)
	}
}
