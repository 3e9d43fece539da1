package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"

	"enframe/internal/core"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/stream"
)

// bench is what every workload shares: where the checkout is and how the
// served workloads get their server.
type bench struct {
	root   string
	outDir string
	// inProcess serves from this process instead of a child `enframe serve`
	// (the tests' dry runs).
	inProcess bool
	bin       string
}

// serve starts the serving instance of a served workload, building the
// enframe binary from the checkout on first use.
func (b *bench) serve(workload string) (*target, error) {
	if b.inProcess {
		return startInProcess(), nil
	}
	if b.bin == "" {
		bin, err := buildEnframe(b.root, b.outDir)
		if err != nil {
			return nil, err
		}
		b.bin = bin
	}
	return startChild(b.bin, filepath.Join(b.outDir, "child-"+workload+".log"))
}

// instance is a workload set up, warm, and ready for its first measured
// operation.
type instance struct {
	// callers is the number of closed-loop callers; op runs the next
	// operation of caller c and returns an error when it failed, was refused
	// or answered wrongly.
	callers int
	op      func(c int) error
	// prepare, when set, runs before each of caller c's operations and is
	// not timed: it is the generator making the operation's input (for
	// compile-hybrid, the front end preparing the artifacts the operation
	// compiles), not the system answering.
	prepare func(c int) error
	// rssPID is the process whose VmHWM is peak_rss_mb; 0 is this process.
	rssPID int
	// verify, when set, runs after the window: the checks whose reference
	// answers the window must not pay for.
	verify func() error
	close  func() error
}

// plan is a workload bound to a seed. Building it runs the untimed part of
// the correctness gate; setup starts the system under test and is what
// setup_s times, repeats times over.
type plan struct {
	repeats int
	setup   func() (*instance, error)
}

// workload is one named traffic mix; BENCHMARK.json records why each exists.
type workload struct {
	name  string
	plan  func(b *bench, seed int64) (*plan, error)
	trace func(b *bench, seed int64) (*traceRun, error)
}

var workloads = []workload{
	{"batch-exact", planBatchExact, traceBatchExact},
	{"compile-hybrid", planCompileHybrid, traceCompileHybrid},
	{"serve-run-mixed", planServeRun, traceServeRun},
	{"stream-push-mixed", planStreamPush, traceStreamPush},
	{"whatif-sweep", planWhatif, traceWhatif},
}

func noClose() error { return nil }

// Warm-up lengths, in operations per caller. Warm-up is part of set-up: it
// is the work a caller waits through before the system answers at its steady
// speed, and a change that makes the system slower to warm shows in setup_s.
const (
	batchWarmRounds  = 4
	hybridWarmRounds = 16
	runWarmOps       = 40
	whatifWarmOps    = 32
	// A stream session reaches its steady mix of segment ages only after
	// every initial segment has retired: 8 advances, one per 50 pushes.
	pushWarmOps = 400
)

// batch-exact: the paper's primary use — one analyst run after another, each
// paying for the whole pipeline.

func runBatchTask(req server.RunRequest) (*core.Report, error) {
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		return nil, err
	}
	return core.RunContext(context.Background(), spec)
}

func planBatchExact(b *bench, seed int64) (*plan, error) {
	for _, req := range batchRound(seed, 0) {
		if err := checkAgainstWorlds(req); err != nil {
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
	}
	setup := func() (*instance, error) {
		round := 0
		op := func(int) error {
			tasks := batchRound(seed, round)
			round++
			for _, req := range tasks {
				rep, err := runBatchTask(req)
				if err != nil {
					return err
				}
				if err := checkExactResult(rep.Result); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < batchWarmRounds; i++ {
			if err := op(0); err != nil {
				return nil, err
			}
		}
		return &instance{callers: 1, op: op, close: noClose}, nil
	}
	return &plan{repeats: 3, setup: setup}, nil
}

// compile-hybrid: the paper's headline algorithm on artifacts the generator
// has prepared, so the window holds ε-approximate compilation and nothing
// else.

var hybridOptions = prob.Options{Strategy: prob.Hybrid, Epsilon: hybridEpsilon, Workers: 2, JobDepth: 3}

// prepareHybrid runs the front end for one round's three artifacts.
func prepareHybrid(seed int64, round int) ([3]*core.Artifact, error) {
	var arts [3]*core.Artifact
	for i, req := range hybridRound(seed, round) {
		spec, _, err := server.BuildSpec(req)
		if err != nil {
			return arts, err
		}
		arts[i], err = core.PrepareContext(context.Background(), spec)
		if err != nil {
			return arts, err
		}
	}
	return arts, nil
}

func planCompileHybrid(b *bench, seed int64) (*plan, error) {
	ctx := context.Background()
	// The gate compiles round 0's artifacts exactly as well; an exact run at
	// this size costs as much as twenty approximate ones, which is why the
	// window's rounds are held to the ε-contract only.
	gate, err := prepareHybrid(seed, 0)
	if err != nil {
		return nil, err
	}
	for i, art := range gate {
		exact, err := art.CompileContext(ctx, prob.Options{})
		if err != nil {
			return nil, err
		}
		approx, err := art.CompileContext(ctx, hybridOptions)
		if err != nil {
			return nil, err
		}
		if err := checkApproxResult(approx.Result); err == nil {
			err = checkContains(approx.Result, exact.Result)
		}
		if err != nil {
			return nil, fmt.Errorf("correctness gate: %s: %w", schemes[i], err)
		}
	}
	setup := func() (*instance, error) {
		round := 0
		var arts [3]*core.Artifact
		// The generator prepares the round's artifacts and compiles each
		// once: the operation is then the compile a cached artifact gets —
		// variable order memoized, network resident — and not the first
		// touch of cold memory, whose speed on this box follows the
		// neighbours' cache pressure more than the code (run-to-run spread
		// of p90 14 % cold against 2 % warm, measured side by side).
		prepare := func(int) (err error) {
			arts, err = prepareHybrid(seed, round)
			round++
			for _, art := range arts {
				if err == nil {
					_, err = art.CompileContext(ctx, hybridOptions)
				}
			}
			return err
		}
		op := func(int) error {
			for _, art := range arts {
				rep, err := art.CompileContext(ctx, hybridOptions)
				if err != nil {
					return err
				}
				if err := checkApproxResult(rep.Result); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < hybridWarmRounds; i++ {
			if err := prepare(0); err != nil {
				return nil, err
			}
			if err := op(0); err != nil {
				return nil, err
			}
		}
		return &instance{callers: 1, prepare: prepare, op: op, close: noClose}, nil
	}
	return &plan{repeats: 3, setup: setup}, nil
}

// serve-run-mixed: /v1/run over loopback HTTP, 80 % artifact-cache hits and
// 20 % never-seen keys.

// coldCheck is a cold reply kept for checking after the window.
type coldCheck struct {
	req     server.RunRequest
	targets []byte
}

func planServeRun(b *bench, seed int64) (*plan, error) {
	expected := make([][]byte, runHotKeys)
	for k := range expected {
		exp, err := expectedRunTargets(runRequest(derive(seed, streamRunHot, uint64(k))))
		if err != nil {
			return nil, err
		}
		expected[k] = exp
	}
	setup := func() (*instance, error) {
		t, err := b.serve("serve-run-mixed")
		if err != nil {
			return nil, err
		}
		var (
			sched [callers]*runSchedule
			bufs  [callers]bytes.Buffer
			colds [callers]int
			kept  [callers][]coldCheck
		)
		for c := range sched {
			sched[c] = newRunSchedule(seed, c)
		}
		op := func(c int) error {
			o := sched[c].next()
			if err := t.post("/v1/run", o.Req, &bufs[c]); err != nil {
				return err
			}
			body := bufs[c].Bytes()
			if o.Hot >= 0 {
				if !bytes.Contains(body, expected[o.Hot]) {
					return fmt.Errorf("/v1/run: hot key %d: targets differ from the in-process result", o.Hot)
				}
				return nil
			}
			// One cold reply in 16 is kept and recomputed after the window.
			colds[c]++
			if colds[c]%16 == 1 {
				kept[c] = append(kept[c], coldCheck{o.Req, append([]byte(nil), runTargetsOf(body)...)})
			}
			return nil
		}
		for c := range sched {
			for i := 0; i < runWarmOps; i++ {
				if err := op(c); err != nil {
					_ = t.stop()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		verify := func() error {
			for _, perCaller := range kept {
				for _, k := range perCaller {
					exp, err := expectedRunTargets(k.req)
					if err != nil {
						return err
					}
					if !bytes.Equal(k.targets, exp) {
						return fmt.Errorf("/v1/run: cold data seed %d: targets differ from the in-process result", k.req.Data.Seed)
					}
				}
			}
			return nil
		}
		return &instance{callers: callers, op: op, rssPID: t.pid, verify: verify, close: t.stop}, nil
	}
	return &plan{repeats: 3, setup: setup}, nil
}

// whatif-sweep: /v1/whatif sweeps over circuits traced in set-up; zero
// compilations per operation.

func planWhatif(b *bench, seed int64) (*plan, error) {
	arts := make([]*whatifArtifact, whatifArtifacts)
	for a := range arts {
		wa, err := expectedWhatif(whatifBase(seed, a))
		if err != nil {
			return nil, err
		}
		arts[a] = wa
	}
	setup := func() (*instance, error) {
		t, err := b.serve("whatif-sweep")
		if err != nil {
			return nil, err
		}
		var (
			next [callers]int
			bufs [callers]bytes.Buffer
		)
		sweep := func(c, a, v int) error {
			wa := arts[a]
			if err := t.post("/v1/whatif", whatifRequest(wa.base, wa.vars[v]), &bufs[c]); err != nil {
				return err
			}
			if !bytes.HasSuffix(bytes.TrimSpace(bufs[c].Bytes()), wa.points[v]) {
				return fmt.Errorf("/v1/whatif: artifact %d swept over %s: points differ from the in-process replay", a, wa.vars[v])
			}
			return nil
		}
		op := func(c int) error {
			a, pass := whatifOp(c, next[c])
			next[c]++
			return sweep(c, a, pass%len(arts[a].vars))
		}
		warm := func() error {
			// The first sweep of an artifact prepares it and traces its circuit.
			for a := range arts {
				if err := sweep(0, a, 0); err != nil {
					return err
				}
			}
			for c := 0; c < callers; c++ {
				for i := 0; i < whatifWarmOps; i++ {
					if err := op(c); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := warm(); err != nil {
			_ = t.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return &instance{callers: callers, op: op, rssPID: t.pid, close: t.stop}, nil
	}
	return &plan{repeats: 3, setup: setup}, nil
}

// stream-push-mixed: two /v1/stream sessions, 80 % probability-only pushes
// and 20 % structural ones.

// pushSession is one caller's session: its schedule and everything it has
// pushed, kept for the recompute after the window.
type pushSession struct {
	id    string
	cfg   stream.Config
	sched *pushSchedule
	log   [][]stream.Delta
	buf   bytes.Buffer
}

func openPushSession(t *target, seed int64, caller int) (*pushSession, error) {
	cfg := streamConfig(seed, caller)
	var created server.StreamResponse
	if err := t.postInto("/v1/stream", server.StreamRequest{Op: "create", Config: &cfg}, &created); err != nil {
		return nil, err
	}
	sched, err := newPushSchedule(seed, caller, created.Windows, created.Seq)
	if err != nil {
		return nil, err
	}
	return &pushSession{id: created.SessionID, cfg: cfg, sched: sched}, nil
}

// push sends the session's next batch and checks that the reply acknowledges
// exactly the sequence number the batch leads to.
func (s *pushSession) push(t *target) error {
	_, baseSeq, deltas := s.sched.next()
	s.log = append(s.log, deltas)
	if err := t.post("/v1/stream", server.StreamRequest{Op: "push", SessionID: s.id, BaseSeq: baseSeq, Deltas: deltas}, &s.buf); err != nil {
		return fmt.Errorf("push at seq %d: %w", baseSeq, err)
	}
	ack := `"seq":` + strconv.FormatUint(s.sched.seq, 10) + `,`
	if !bytes.Contains(s.buf.Bytes(), []byte(ack)) {
		return fmt.Errorf("/v1/stream push at seq %d: reply does not acknowledge seq %d", baseSeq, s.sched.seq)
	}
	return nil
}

// verify requires the session's final marginals to equal a recompute of its
// delta log from scratch.
func (s *pushSession) verify(t *target) error {
	var final server.StreamResponse
	if err := t.postInto("/v1/stream", server.StreamRequest{Op: "query", SessionID: s.id}, &final); err != nil {
		return err
	}
	want, err := replayLog(s.cfg, s.log)
	if err != nil {
		return fmt.Errorf("recompute of the delta log: %w", err)
	}
	if err := sameMarginals(final.Marginals, want); err != nil {
		return fmt.Errorf("session %s after %d pushes: %w", s.id, len(s.log), err)
	}
	return nil
}

func planStreamPush(b *bench, seed int64) (*plan, error) {
	setup := func() (*instance, error) {
		t, err := b.serve("stream-push-mixed")
		if err != nil {
			return nil, err
		}
		var sessions [callers]*pushSession
		warm := func() error {
			for c := range sessions {
				s, err := openPushSession(t, seed, c)
				if err != nil {
					return err
				}
				sessions[c] = s
			}
			errs := make(chan error, callers)
			for _, s := range sessions {
				go func() {
					for i := 0; i < pushWarmOps; i++ {
						if err := s.push(t); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			var first error
			for range sessions {
				if err := <-errs; err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		if err := warm(); err != nil {
			_ = t.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		verify := func() error {
			for _, s := range sessions {
				if err := s.verify(t); err != nil {
					return err
				}
			}
			return nil
		}
		op := func(c int) error { return sessions[c].push(t) }
		return &instance{callers: callers, op: op, rssPID: t.pid, verify: verify, close: t.stop}, nil
	}
	return &plan{repeats: 3, setup: setup}, nil
}
