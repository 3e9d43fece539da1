package prob

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enframe/internal/network"
	"enframe/internal/obs"
)

// execCompile runs CompileExec over a fresh local session.
func execCompile(t *testing.T, net *network.Net, opts Options, slots int) *Result {
	t.Helper()
	sess, err := NewSession(net, opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := CompileExec(context.Background(), net, opts, NewLocalExecutor(sess, slots))
	if err != nil {
		t.Fatalf("CompileExec: %v", err)
	}
	return res
}

// TestCompileExecBitIdentical is the byte-identity contract of the
// executor-driven plane: exact marginals from job-sharded execution must
// equal the sequential run bit for bit, because the coordinator replays
// bound contributions in sequential DFS order.
func TestCompileExecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 40; trial++ {
		net := randomNet(rng, 3+rng.Intn(8), 1+rng.Intn(4))
		seq, err := Compile(net, Options{Strategy: Exact, JobDepth: 2})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		for _, slots := range []int{1, 3} {
			got := execCompile(t, net, Options{Strategy: Exact, JobDepth: 2}, slots)
			for i, tb := range got.Targets {
				want := seq.Targets[i]
				if math.Float64bits(tb.Lower) != math.Float64bits(want.Lower) ||
					math.Float64bits(tb.Upper) != math.Float64bits(want.Upper) {
					t.Fatalf("trial %d slots %d target %s: got [%x, %x], want [%x, %x]",
						trial, slots, tb.Name,
						math.Float64bits(tb.Lower), math.Float64bits(tb.Upper),
						math.Float64bits(want.Lower), math.Float64bits(want.Upper))
				}
			}
		}
	}
}

// TestCompileExecApproxContract checks Upper−Lower ≤ 2ε and enclosure of the
// true probability for the budgeted strategies under the executor plane.
func TestCompileExecApproxContract(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	const eps = 0.05
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 3+rng.Intn(7), 1+rng.Intn(3))
		want := exactByEnumeration(net)
		for _, strat := range []Strategy{Eager, Lazy, Hybrid} {
			res := execCompile(t, net, Options{Strategy: strat, Epsilon: eps, JobDepth: 2}, 2)
			for i, tb := range res.Targets {
				if tb.Gap() > 2*eps+1e-9 {
					t.Fatalf("trial %d %v target %s: gap %g > 2ε", trial, strat, tb.Name, tb.Gap())
				}
				if want[i] < tb.Lower-1e-9 || want[i] > tb.Upper+1e-9 {
					t.Fatalf("trial %d %v target %s: %g outside [%g, %g]",
						trial, strat, tb.Name, want[i], tb.Lower, tb.Upper)
				}
			}
		}
	}
}

func TestCompileExecCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	net := randomNet(rng, 10, 3)
	sess, err := NewSession(net, Options{Strategy: Exact})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CompileExec(ctx, net, Options{Strategy: Exact}, NewLocalExecutor(sess, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// editedExecutor answers each job with a real session's result, changed by
// edit: an executor on another process may answer anything.
type editedExecutor struct {
	*LocalExecutor
	edit func(*WireResult)
}

func (e editedExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	res, err := e.LocalExecutor.ExecuteJob(ctx, j)
	if err == nil {
		e.edit(res)
	}
	return res, err
}

// TestCompileExecRefusesMalformedResults: a result whose items or budget
// vectors do not fit the network fails the compile with an executor error
// before any of it merges, instead of indexing past the bounds book.
func TestCompileExecRefusesMalformedResults(t *testing.T) {
	net := randomNet(rand.New(rand.NewSource(175)), 8, 2)
	opts := Options{Strategy: Exact, JobDepth: 1}
	sess, err := NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(*WireResult){
		"target": func(r *WireResult) {
			r.Items = append(r.Items, WireItem{Kind: ItemAdd, Target: 1 << 20, Mass: 0.5})
		},
		"negative target": func(r *WireResult) { r.Items = append(r.Items, WireItem{Kind: ItemAdd, Target: -1}) },
		"fork index":      func(r *WireResult) { r.Items = append(r.Items, WireItem{Kind: ItemFork, Fork: int32(len(r.Forks))}) },
		"item kind":       func(r *WireResult) { r.Items = append(r.Items, WireItem{Kind: ItemFork + 1}) },
		"residual":        func(r *WireResult) { r.Residual = append(r.Residual, 0) },
		"fork budget":     func(r *WireResult) { r.Forks = append(r.Forks, WireFork{P: 0.5}) },
	} {
		_, err := CompileExec(context.Background(), net, opts, editedExecutor{NewLocalExecutor(sess, 1), edit})
		if !errors.Is(err, ErrExecutorUnavailable) || !strings.Contains(err.Error(), "malformed result") {
			t.Errorf("%s: err = %v, want a malformed-result executor error", name, err)
		}
	}
}

// TestExecJobRefusesForeignJobs: a job whose path, order position or budget
// vector does not fit the session fails with an error instead of replaying
// past the session's arrays; the session serves well-formed jobs after.
func TestExecJobRefusesForeignJobs(t *testing.T) {
	net := randomNet(rand.New(rand.NewSource(176)), 4, 2)
	sess, err := NewSession(net, Options{Strategy: Exact, JobDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	E := make([]float64, sess.Targets())
	for name, j := range map[string]*WireJob{
		"path variable":     {P: 1, E: E, Path: []Assign{{Var: 1 << 20, Val: true}}},
		"negative variable": {P: 1, E: E, Path: []Assign{{Var: -1}}},
		"order position":    {P: 1, E: E, OI: 1 << 20},
		"negative position": {P: 1, E: E, OI: -1},
		"budgets":           {P: 1, E: make([]float64, sess.Targets()+1)},
		"no budgets":        {P: 1},
	} {
		if _, err := sess.ExecJob(context.Background(), j); err == nil {
			t.Errorf("%s: foreign job ran", name)
		}
	}
	if _, err := sess.ExecJob(context.Background(), &WireJob{P: 1, E: E}); err != nil {
		t.Fatalf("well-formed job after refusals: %v", err)
	}
}

// TestWorkQueuePopUnblocksOnStop is the regression test for the satellite
// fix: a cancelled compilation must wake workers parked on the queue's
// condition variable instead of leaving them blocked until the queue drains.
func TestWorkQueuePopUnblocksOnStop(t *testing.T) {
	var stop atomic.Bool
	q := newWorkQueue(4, &stop)
	unblocked := make(chan bool, 1)
	go func() {
		_, ok := q.pop()
		unblocked <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the popper park on cond.Wait
	stop.Store(true)
	q.interrupt()
	select {
	case ok := <-unblocked:
		if ok {
			t.Fatal("pop returned a job after stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop stayed blocked after stop + interrupt")
	}
}

// TestCompileCtxCancelUnblocksDistributed drives the same fix end to end:
// cancelling the context of a distributed compilation returns promptly.
func TestCompileCtxCancelUnblocksDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	net := randomNet(rng, 14, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := CompileCtx(ctx, net, Options{Strategy: Exact, Workers: 4, JobDepth: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("distributed compile hung after cancellation")
	}
}

// TestQueueMetrics checks the in-process runner publishes the queue gauge
// and fork/inline counters added for parity with the remote plane.
func TestQueueMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	net := randomNet(rng, 10, 3)
	tr := obs.New("test")
	_, err := Compile(net, Options{Strategy: Exact, Workers: 3, JobDepth: 1, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	reg := tr.Metrics()
	forked := reg.Counter("prob.jobs.forked").Value()
	inlined := reg.Counter("prob.jobs.inlined").Value()
	if forked == 0 {
		t.Fatalf("prob.jobs.forked = 0, want > 0 (inlined=%d)", inlined)
	}
	found := false
	for _, v := range reg.Values() {
		if v.Name == "prob.queue.depth" {
			found = true
		}
	}
	if !found {
		t.Fatal("prob.queue.depth gauge not registered")
	}
}
