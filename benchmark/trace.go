package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"enframe/internal/benchutil"
)

// The traced pass. Every workload's schedule is replayed in-process by a
// single caller, once through the operation's top-level entry only and once
// layer by layer, with a span recorded — here, in the benchmark's own code —
// around each call into a package's public functions. The end-to-end metrics
// are never taken from this pass: it exists to say where an operation's time
// goes, and its own cost is reported as trace.overhead_ratio.

// traceOps is how many operations of each schedule the traced pass replays.
const traceOps = 60

// span is one timed call into a layer, in nanoseconds since the recorder
// started. Parent is the index of the enclosing span, -1 for an operation's
// root.
type span struct {
	Name   string
	Op     int
	Parent int
	Start  time.Duration
	End    time.Duration
}

// recorder keeps the spans of one layered replay in memory; they are written
// out when the benchmark ends. One caller records, so a stack gives every
// span its parent.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: time.Since(r.t0)})
	r.stack = append(r.stack, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if len(r.stack) == 0 || r.stack[len(r.stack)-1] != id {
		panic("benchmark: spans closed out of order")
	}
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[id].End = time.Since(r.t0)
}

// attribute records, under the closed span parent, a child whose duration the
// layer itself reported in a public result struct (prob's stage timings, a
// stream update's stats). Attributed children are laid end to end from the
// parent's start: their order is known, their exact position is not.
func (r *recorder) attribute(parent int, name string, d time.Duration) {
	if d <= 0 {
		return
	}
	start := r.spans[parent].Start
	for _, s := range r.spans[parent+1:] {
		if s.Parent == parent && s.End > start {
			start = s.End
		}
	}
	r.spans = append(r.spans, span{Name: name, Op: r.spans[parent].Op, Parent: parent, Start: start, End: start + d})
}

// layerRow is one line of the per-layer table: the time spent in spans of
// one name and not in their children, per operation.
type layerRow struct {
	Name        string  `json:"name"`
	Calls       int     `json:"calls"`
	SelfMsPerOp float64 `json:"self_ms_per_op"`
}

// selfTimes folds the spans into the per-layer table: a span's self time is
// its duration less the part its children cover.
func (r *recorder) selfTimes(ops int) []layerRow {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Calls++
		row.SelfMsPerOp += benchutil.Ms(self[i]) / float64(ops)
	}
	out := make([]layerRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// total is the summed duration of every span of a name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// chromeTrace renders the spans as Chrome trace_event JSON, which Perfetto
// and about:tracing load.
func (r *recorder) chromeTrace(workload string) map[string]any {
	events := make([]map[string]any, 0, len(r.spans)+1)
	events = append(events, map[string]any{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
		"args": map[string]any{"name": "benchmark " + workload + " (layered replay)"},
	})
	for _, s := range r.spans {
		events = append(events, map[string]any{
			"name": s.Name, "cat": "layer", "ph": "X", "pid": 1, "tid": 1,
			"ts":   float64(s.Start) / float64(time.Microsecond),
			"dur":  float64(s.End-s.Start) / float64(time.Microsecond),
			"args": map[string]any{"op": s.Op},
		})
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

// counts are the work counters the layers report, summed over a layered
// replay.
type counts struct {
	tokens, nodes                       int64
	lookups, hits                       int64
	branches, maskUpdates, prunes, jobs int64
	workerBusy, workerAvailable         time.Duration
	circuitTraces, circuitNodes         int64
	circuitTrace                        time.Duration
	evalPoints                          int64
	regrounds, replays, retraces        int64
	probPushes, structPushes            int
	probApply, structApply              time.Duration
	cacheHits, cacheMisses              int64
	queries                             int
	query                               time.Duration
}

// traceRun is a workload prepared for the traced pass.
type traceRun struct {
	// prepare, when set, makes operation i's input, untimed. top runs
	// operation i through the top-level entry only; layered then runs the
	// same operation layer by layer on state of its own.
	prepare func(i int) error
	top     func(i int) error
	layered func(i int, r *recorder, c *counts) error
	// http, for the served workloads, sends the same operation to a child
	// `enframe serve`, so that what HTTP and the process boundary add is
	// the difference to top.
	http func(i int) error
	// after runs once the replays are done, for counters read off the
	// system's public state.
	after func(c *counts)
	// residual names the metric that holds the wall time no layer call
	// covers: core.self_ms in-process, server.self_ms behind the handler.
	residual string
	// deterministic is false when worker scheduling moves the work counters.
	deterministic bool
	close         func() error
}

// tracedResult is one workload's traced pass.
type tracedResult struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Ops           int               `json:"ops"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Deterministic bool              `json:"counters_deterministic"`
	Metrics       map[string]metric `json:"metrics"`
	Layers        []layerRow        `json:"layers"`
	Residual      string            `json:"residual"`
	Flag          string            `json:"flag,omitempty"`
	Errors        []string          `json:"errors,omitempty"`
}

// exactCounters are the work counters that must repeat exactly between two
// traced passes of a single-worker workload.
var exactCounters = []string{
	"lang.tokens", "network.nodes", "prob.branches", "prob.mask_updates_per_branch",
	"circuit.nodes", "stream.regrounds", "stream.replays", "stream.retraces",
}

func runTraced(b *bench, w workload, seed int64) (*tracedResult, error) {
	run, err := w.trace(b, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &tracedResult{Workload: w.name, Seed: seed, Ops: traceOps, Deterministic: run.deterministic, Residual: run.residual}
	rec := newRecorder()
	var c counts
	layeredOp := func(i int) error {
		rec.op = i
		id := rec.begin("op")
		err := run.layered(i, rec, &c)
		rec.end(id)
		return err
	}
	// The replays take turns operation by operation, so that a drift of the
	// machine over the pass lands on all of them alike.
	replays := []struct {
		what  string
		fn    func(i int) error
		total time.Duration
	}{{"top-level", run.top, 0}, {"layered", layeredOp, 0}, {"http", run.http, 0}}
	for i := 0; i < traceOps; i++ {
		var err error
		if run.prepare != nil {
			err = run.prepare(i)
		}
		for k := range replays {
			rp := &replays[k]
			if rp.fn == nil {
				continue
			}
			t0 := time.Now()
			if err == nil {
				err = rp.fn(i)
			}
			rp.total += time.Since(t0)
			res.Attempted++
			if err != nil {
				res.Failed++
				if len(res.Errors) < 5 {
					res.Errors = append(res.Errors, fmt.Sprintf("%s op %d: %v", rp.what, i, err))
				}
			}
		}
	}
	top, layered, rtt := replays[0].total/traceOps, replays[1].total/traceOps, replays[2].total/traceOps
	if run.after != nil {
		run.after(&c)
	}
	if err := run.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	perOp := func(name string) float64 { return benchutil.Ms(rec.total(name)) / traceOps }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"lang.parse_ms":                perOp("lang.parse"),
		"lang.tokens":                  float64(c.tokens) / traceOps,
		"translate.emit_ms":            perOp("translate.emit"),
		"network.build_ms":             perOp("network.build"),
		"network.nodes":                float64(c.nodes) / traceOps,
		"network.hashcons_hit_ratio":   ratio(float64(c.hits), float64(c.lookups)),
		"prob.compile_ms":              perOp("prob.compile"),
		"prob.order_ms":                perOp("prob.order"),
		"prob.init_ms":                 perOp("prob.init"),
		"prob.explore_ms":              perOp("prob.explore"),
		"prob.branches":                float64(c.branches) / traceOps,
		"prob.mask_updates_per_branch": ratio(float64(c.maskUpdates), float64(c.branches)),
		"prob.budget_prunes":           float64(c.prunes) / traceOps,
		"prob.jobs":                    float64(c.jobs) / traceOps,
		"prob.worker_utilization":      ratio(c.workerBusy.Seconds(), c.workerAvailable.Seconds()),
		"circuit.trace_ms":             ratio(benchutil.Ms(c.circuitTrace), float64(c.circuitTraces)),
		"circuit.nodes":                ratio(float64(c.circuitNodes), float64(c.circuitTraces)),
		"circuit.eval_us_per_point":    ratio(1000*benchutil.Ms(rec.total("circuit.eval")), float64(c.evalPoints)),
		"core.prepare_ms":              perOp("core.prepare"),
		"core.compile_ms":              perOp("core.compile"),
		"server.buildspec_ms":          perOp("server.buildspec"),
		"server.cache_hit_ratio":       ratio(float64(c.cacheHits), float64(c.cacheHits+c.cacheMisses)),
		"stream.apply_prob_ms":         ratio(benchutil.Ms(c.probApply), float64(c.probPushes)),
		"stream.apply_struct_ms":       ratio(benchutil.Ms(c.structApply), float64(c.structPushes)),
		"stream.query_ms":              ratio(benchutil.Ms(c.query), float64(c.queries)),
		"stream.regrounds":             float64(c.regrounds) / traceOps,
		"stream.replays":               float64(c.replays) / traceOps,
		"stream.retraces":              float64(c.retraces) / traceOps,
		"trace.op_ms":                  benchutil.Ms(top),
		"trace.overhead_ratio":         ratio(benchutil.Ms(layered), benchutil.Ms(top)),
	}

	// What the layer calls cover of an operation's wall time; the rest is
	// the residual, reported under its name.
	res.Layers = rec.selfTimes(traceOps)
	var covered float64
	for _, row := range res.Layers {
		if row.Name != "op" {
			covered += row.SelfMsPerOp
		}
	}
	rest := benchutil.Ms(top) - covered
	v[run.residual] = rest
	v["trace.unattributed_ratio"] = ratio(rest, benchutil.Ms(top))
	if run.http != nil {
		v["server.handler_ms"] = benchutil.Ms(top)
		v["server.http_ms"] = benchutil.Ms(rtt - top)
	}
	if share := v["trace.unattributed_ratio"]; share > 0.10 || share < -0.10 {
		res.Flag = fmt.Sprintf("layer calls cover %.0f%% of the operation; the rest is %s = %.4f ms",
			100*(1-share), run.residual, rest)
	}
	res.Metrics = withUnits(perLayer, v)
	res.Correct = res.Failed == 0
	if err := benchutil.WriteJSON(filepath.Join(b.outDir, "trace-"+w.name+".json"), rec.chromeTrace(w.name)); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *tracedResult) print() {
	fmt.Printf("%s  seed %d  traced pass over %d operations  failed %d\n", r.Workload, r.Seed, r.Ops, r.Failed)
	for _, d := range perLayer {
		if m := r.Metrics[d.Name]; m.Value != 0 {
			fmt.Printf("  %-30s %14.4f %s\n", d.Name, m.Value, d.Unit)
		}
	}
	if r.Flag != "" {
		fmt.Printf("  note: %s\n", r.Flag)
	}
	for _, e := range r.Errors {
		fmt.Printf("  WRONG: %s\n", e)
	}
}
