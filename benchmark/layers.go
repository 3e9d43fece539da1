package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/stream"
	"enframe/internal/translate"
)

// The layered replays: each workload's operation taken apart into the calls
// its top-level entry makes into the packages below it, every call under a
// span. The decomposition is the benchmark's reading of the code path and is
// checked on every operation: the layered answer must equal the top-level
// one.

// frontEnd runs the fused front end the way core.PrepareContext sequences
// it: lex and parse, translate into a fresh hash-consing builder, then sweep
// the targets and build the network.
func frontEnd(r *recorder, c *counts, spec core.Spec) (*network.Net, error) {
	prepare := r.begin("core.prepare")
	defer r.end(prepare)

	id := r.begin("lang.parse")
	toks, err := lang.Tokens(spec.Source)
	var prog *lang.Program
	if err == nil {
		prog, err = lang.ParseTokens(toks)
	}
	r.end(id)
	if err != nil {
		return nil, err
	}
	c.tokens += int64(len(toks))

	id = r.begin("translate.emit")
	b := network.NewBuilder(spec.Space, spec.Metric)
	res, err := translate.TranslateInto(prog, translate.External{
		Objects:     spec.Objects,
		Space:       spec.Space,
		Matrix:      spec.Matrix,
		Params:      spec.Params,
		InitIndices: spec.InitIndices,
	}, b)
	r.end(id)
	if err != nil {
		return nil, err
	}

	id = r.begin("network.build")
	var syms []string
	for _, pattern := range spec.Targets {
		syms = append(syms, res.SymbolsWithPrefix(pattern)...)
	}
	sort.Strings(syms)
	for _, sym := range syms {
		node, ok := res.BoolNode(sym)
		if !ok {
			r.end(id)
			return nil, fmt.Errorf("target %q is not Boolean", sym)
		}
		b.Target(sym, node)
	}
	net := b.Build()
	st := b.Stats()
	r.end(id)
	c.nodes += int64(net.NumNodes())
	c.lookups += st.Lookups
	c.hits += st.Hits
	return net, nil
}

// compileNet compiles the way Artifact.CompileContext does: with the variable
// order the artifact memoizes, computed first when opts carries none. The
// init and explore stages are attributed from the timings prob reports.
func compileNet(r *recorder, c *counts, net *network.Net, opts prob.Options) (*prob.Result, error) {
	outer := r.begin("core.compile")
	defer r.end(outer)
	id := r.begin("prob.compile")
	if opts.Order == nil {
		order := r.begin("prob.order")
		opts.Order = prob.Order(net, opts.Heuristic)
		r.end(order)
	}
	res, err := prob.CompileCtx(context.Background(), net, opts)
	r.end(id)
	if err != nil {
		return nil, err
	}
	st := res.Stats
	r.attribute(id, "prob.init", st.Timings.Init)
	r.attribute(id, "prob.explore", st.Timings.Explore)
	c.branches += st.Branches
	c.maskUpdates += st.MaskUpdates
	c.prunes += st.BudgetPrunes
	c.jobs += st.Jobs
	// A sequential run keeps its one worker busy for the whole exploration.
	c.workerAvailable += st.Timings.Explore * time.Duration(max(len(st.PerWorker), 1))
	if st.PerWorker == nil {
		c.workerBusy += st.Timings.Explore
	}
	for _, w := range st.PerWorker {
		c.workerBusy += w.Busy
	}
	return res, nil
}

// sameTargets requires two results to agree bit for bit.
func sameTargets(got, want *prob.Result) error {
	g, err := json.Marshal(runTargets(got))
	if err != nil {
		return err
	}
	w, err := json.Marshal(runTargets(want))
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("layered marginals differ from the top-level entry's")
	}
	return nil
}

// batch-exact: top level is core.RunContext.

func traceBatchExact(b *bench, seed int64) (*traceRun, error) {
	want := make([][4]*prob.Result, traceOps)
	return &traceRun{
		residual:      "core.self_ms",
		deterministic: true,
		close:         noClose,
		top: func(i int) error {
			for k, req := range batchRound(seed, i) {
				rep, err := runBatchTask(req)
				if err != nil {
					return err
				}
				want[i][k] = rep.Result
			}
			return nil
		},
		layered: func(i int, r *recorder, c *counts) error {
			for k, req := range batchRound(seed, i) {
				id := r.begin("server.buildspec")
				spec, _, err := server.BuildSpec(req)
				r.end(id)
				if err != nil {
					return err
				}
				net, err := frontEnd(r, c, spec)
				if err != nil {
					return err
				}
				res, err := compileNet(r, c, net, prob.Options{})
				if err != nil {
					return err
				}
				if err := sameTargets(res, want[i][k]); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// compile-hybrid: top level is Artifact.CompileContext on artifacts prepared
// and compiled once outside the operation, as in the timed run.

func traceCompileHybrid(b *bench, seed int64) (*traceRun, error) {
	ctx := context.Background()
	var arts [3]*core.Artifact
	return &traceRun{
		residual: "core.self_ms",
		// Two workers race for jobs, so branch and prune counts move from
		// run to run.
		deterministic: false,
		close:         noClose,
		prepare: func(i int) (err error) {
			arts, err = prepareHybrid(seed, i)
			for _, art := range arts {
				if err == nil {
					_, err = art.CompileContext(ctx, hybridOptions)
				}
			}
			return err
		},
		top: func(i int) error {
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
		},
		layered: func(i int, r *recorder, c *counts) error {
			for _, art := range arts {
				opts := hybridOptions
				opts.Order = art.Order(opts.Heuristic)
				res, err := compileNet(r, c, art.Net, opts)
				if err != nil {
					return err
				}
				if err := checkApproxResult(res); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// handle sends one request straight into a handler, no socket in between.
func handle(h http.Handler, path string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

// cacheCounters reads the artifact cache's hits and misses out of a server's
// metrics registry.
func cacheCounters(srv *server.Server) (hits, misses int64) {
	reg := srv.Registry()
	return reg.Counter("server.cache.hits").Value(), reg.Counter("server.cache.misses").Value()
}

// cacheSince returns the after-hook that reports the hits and misses counted
// from now on: priming a cache is not one of the traced operations.
func cacheSince(srv *server.Server) func(c *counts) {
	hits0, misses0 := cacheCounters(srv)
	return func(c *counts) {
		hits, misses := cacheCounters(srv)
		c.cacheHits, c.cacheMisses = hits-hits0, misses-misses0
	}
}

// serve-run-mixed: top level is the /v1/run handler. Every replay first
// sends each hot key once, untimed, so that the traced operations see the
// steady 80/20 mix and not a cold cache.

func traceServeRun(b *bench, seed int64) (*traceRun, error) {
	ops := make([]runOp, traceOps)
	sched := newRunSchedule(seed, 0)
	for i := range ops {
		ops[i] = sched.next()
	}
	hot := make([]server.RunRequest, runHotKeys)
	for k := range hot {
		hot[k] = runRequest(derive(seed, streamRunHot, uint64(k)))
	}

	srv := server.New(server.Config{})
	h := srv.Handler()
	for _, req := range hot {
		if _, err := handle(h, "/v1/run", req); err != nil {
			return nil, err
		}
	}
	child, err := b.serve("serve-run-mixed")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	post := func(req server.RunRequest) error { return child.post("/v1/run", req, &buf) }
	for _, req := range hot {
		if err := post(req); err != nil {
			_ = child.stop()
			return nil, err
		}
	}

	// The layered replay keeps its own artifacts by cache key, as the
	// server's cache does: the network and its memoized variable order.
	type artifact struct {
		net   *network.Net
		order []event.VarID
	}
	arts := map[string]*artifact{}
	bodies := make([][]byte, traceOps)
	layered := func(r *recorder, c *counts, req server.RunRequest) (*prob.Result, error) {
		id := r.begin("server.buildspec")
		spec, key, err := server.BuildSpec(req)
		r.end(id)
		if err != nil {
			return nil, err
		}
		art := arts[key]
		if art == nil {
			net, err := frontEnd(r, c, spec)
			if err != nil {
				return nil, err
			}
			id := r.begin("prob.order")
			art = &artifact{net, prob.Order(net, prob.FanoutOrder)}
			r.end(id)
			arts[key] = art
		}
		return compileNet(r, c, art.net, prob.Options{Order: art.order})
	}
	var scratch counts
	for _, req := range hot {
		if _, err := layered(newRecorder(), &scratch, req); err != nil {
			_ = child.stop()
			return nil, err
		}
	}
	return &traceRun{
		residual:      "server.self_ms",
		deterministic: true,
		close:         child.stop,
		top: func(i int) error {
			body, err := handle(h, "/v1/run", ops[i].Req)
			bodies[i] = body
			return err
		},
		layered: func(i int, r *recorder, c *counts) error {
			res, err := layered(r, c, ops[i].Req)
			if err != nil {
				return err
			}
			enc, err := json.Marshal(runTargets(res))
			if err != nil {
				return err
			}
			if !bytes.Contains(bodies[i], enc) {
				return fmt.Errorf("layered marginals differ from the handler's")
			}
			return nil
		},
		http:  func(i int) error { return post(ops[i].Req) },
		after: cacheSince(srv),
	}, nil
}

// whatif-sweep: top level is the /v1/whatif handler; below it are BuildSpec
// and one circuit evaluation per grid point.

func traceWhatif(b *bench, seed int64) (*traceRun, error) {
	ctx := context.Background()
	type hotArtifact struct {
		base server.RunRequest
		art  *core.Artifact
		eval func(probs []float64) (*prob.Result, error)
	}
	arts := make([]hotArtifact, whatifArtifacts)
	var traced counts
	for a := range arts {
		base := whatifBase(seed, a)
		spec, _, err := server.BuildSpec(base)
		if err != nil {
			return nil, err
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			return nil, err
		}
		// Tracing the circuits is set-up in the timed run; it is timed here
		// for circuit.trace_ms all the same.
		t0 := time.Now()
		circ, _, _, err := art.Circuit(ctx, prob.Options{})
		traced.circuitTrace += time.Since(t0)
		if err != nil {
			return nil, err
		}
		traced.circuitTraces++
		traced.circuitNodes += int64(circ.Nodes())
		arts[a] = hotArtifact{base, art, func(probs []float64) (*prob.Result, error) { return prob.EvalCircuit(circ, probs) }}
	}
	request := func(i int) (hotArtifact, server.WhatifRequest, event.VarID) {
		a, pass := whatifOp(0, i)
		sp := arts[a].art.Net.Space
		v := event.VarID(pass % sp.Len())
		return arts[a], whatifRequest(arts[a].base, sp.Name(v)), v
	}

	srv := server.New(server.Config{})
	h := srv.Handler()
	child, err := b.serve("whatif-sweep")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	post := func(req server.WhatifRequest) error { return child.post("/v1/whatif", req, &buf) }
	for a := range arts {
		req := whatifRequest(arts[a].base, "")
		if _, err := handle(h, "/v1/whatif", req); err == nil {
			err = post(req)
		}
		if err != nil {
			_ = child.stop()
			return nil, err
		}
	}
	primed := cacheSince(srv)
	bodies := make([][]byte, traceOps)
	grid := sweepGrid(whatifSteps)
	return &traceRun{
		residual:      "server.self_ms",
		deterministic: true,
		close:         child.stop,
		top: func(i int) error {
			_, req, _ := request(i)
			body, err := handle(h, "/v1/whatif", req)
			bodies[i] = body
			return err
		},
		layered: func(i int, r *recorder, c *counts) error {
			wa, req, v := request(i)
			id := r.begin("server.buildspec")
			_, _, err := server.BuildSpec(req.RunRequest())
			r.end(id)
			if err != nil {
				return err
			}
			points, err := sweepPoints(wa.art.Net.Space, func(probs []float64) (*prob.Result, error) {
				id := r.begin("circuit.eval")
				defer r.end(id)
				return wa.eval(probs)
			}, v, grid)
			if err != nil {
				return err
			}
			c.evalPoints += int64(len(grid))
			enc, err := json.Marshal(points)
			if err != nil {
				return err
			}
			if !bytes.Contains(bodies[i], enc) {
				return fmt.Errorf("layered sweep differs from the handler's")
			}
			return nil
		},
		http: func(i int) error {
			_, req, _ := request(i)
			return post(req)
		},
		after: func(c *counts) {
			primed(c)
			c.circuitTraces, c.circuitTrace, c.circuitNodes = traced.circuitTraces, traced.circuitTrace, traced.circuitNodes
		},
	}, nil
}

// stream-push-mixed: top level is the /v1/stream handler; below it is
// Session.Apply, which reports what it spent on re-grounding, re-tracing and
// replaying in the update's stats.

// sessionWindows lists a session's addressable state as a create reply does.
func sessionWindows(sess *stream.Session) []server.StreamWindow {
	var out []server.StreamWindow
	for _, w := range sess.Windows() {
		vars, _ := sess.VarNames(w)
		ids, _ := sess.TupleIDs(w)
		out = append(out, server.StreamWindow{Window: w, Vars: vars, Tuples: ids})
	}
	return out
}

func traceStreamPush(b *bench, seed int64) (*traceRun, error) {
	ctx := context.Background()
	cfg := streamConfig(seed, 0)

	// The layered replay drives a session of its own; the pushes it makes
	// are the schedule the other two replays send.
	sess, err := stream.NewSession(ctx, cfg)
	if err != nil {
		return nil, err
	}
	sched, err := newPushSchedule(seed, 0, sessionWindows(sess), sess.Seq())
	if err != nil {
		return nil, err
	}
	type push struct {
		kind    string
		baseSeq uint64
		deltas  []stream.Delta
	}
	pushes := make([]push, traceOps)
	for i := range pushes {
		pushes[i].kind, pushes[i].baseSeq, pushes[i].deltas = sched.next()
	}

	srv := server.New(server.Config{})
	h := srv.Handler()
	var created server.StreamResponse
	body, err := handle(h, "/v1/stream", server.StreamRequest{Op: "create", Config: &cfg})
	if err == nil {
		err = json.Unmarshal(body, &created)
	}
	if err != nil {
		return nil, err
	}
	child, err := b.serve("stream-push-mixed")
	if err != nil {
		return nil, err
	}
	var remote server.StreamResponse
	if err := child.postInto("/v1/stream", server.StreamRequest{Op: "create", Config: &cfg}, &remote); err != nil {
		_ = child.stop()
		return nil, err
	}
	var buf bytes.Buffer
	replies := make([]server.StreamResponse, traceOps)
	return &traceRun{
		residual:      "server.self_ms",
		deterministic: true,
		close:         child.stop,
		top: func(i int) error {
			p := pushes[i]
			body, err := handle(h, "/v1/stream", server.StreamRequest{Op: "push", SessionID: created.SessionID, BaseSeq: p.baseSeq, Deltas: p.deltas})
			if err != nil {
				return err
			}
			return json.Unmarshal(body, &replies[i])
		},
		layered: func(i int, r *recorder, c *counts) error {
			p := pushes[i]
			id := r.begin("stream.apply")
			u, err := sess.Apply(ctx, p.baseSeq, p.deltas)
			r.end(id)
			if err != nil {
				return err
			}
			d := r.spans[id].End - r.spans[id].Start
			if p.kind == pushProb {
				c.probPushes++
				c.probApply += d
			} else {
				c.structPushes++
				c.structApply += d
			}
			ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
			r.attribute(id, "core.prepare", ms(u.Stats.GroundMs))
			r.attribute(id, "circuit.trace", ms(u.Stats.TraceMs))
			r.attribute(id, "circuit.eval", ms(u.Stats.ReplayMs))
			c.regrounds += int64(u.Stats.Reground)
			c.replays += int64(u.Stats.Replayed)
			c.retraces += int64(u.Stats.Retraced)
			c.circuitTraces += int64(u.Stats.Retraced)
			c.circuitTrace += ms(u.Stats.TraceMs)
			c.evalPoints += int64(u.Stats.Replayed)
			return sameMarginals(replies[i].Marginals, u.Marginals)
		},
		http: func(i int) error {
			p := pushes[i]
			return child.post("/v1/stream", server.StreamRequest{Op: "push", SessionID: remote.SessionID, BaseSeq: p.baseSeq, Deltas: p.deltas}, &buf)
		},
		after: func(c *counts) {
			for ; c.queries < 20; c.queries++ {
				t0 := time.Now()
				_, _ = sess.Query(ctx)
				c.query += time.Since(t0)
			}
		},
	}, nil
}
