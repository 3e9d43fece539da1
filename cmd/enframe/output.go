package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/obs"
	"enframe/internal/prob"
	"enframe/internal/translate"
)

// dumpEvents prints the event network spec's program grounds to (-dump-events).
// The program is translated into a fresh builder with no targets, so Build
// keeps every node and the bindings' node ids index the net. One line per
// node in id order — id, kind, payload, kid ids — then `sym = n<id>` for
// every final binding, Boolean and numeric, sorted. The output is linear in
// the number of nodes.
func dumpEvents(w io.Writer, spec core.Spec) error {
	prog, err := lang.Parse(spec.Source)
	if err != nil {
		return err
	}
	b := network.NewBuilder(spec.Space, spec.Metric)
	res, err := translate.TranslateInto(prog, translate.External{
		Objects: spec.Objects, Matrix: spec.Matrix,
		Params: spec.Params, InitIndices: spec.InitIndices,
	}, b)
	if err != nil {
		return err
	}
	net := b.Build()
	bw := bufio.NewWriter(w)
	for id, kind := range net.Kind {
		fmt.Fprintf(bw, "n%d %s", id, kind)
		switch arg := net.Arg[id]; kind {
		case network.KVar:
			fmt.Fprintf(bw, " %s", net.Space.Name(event.VarID(arg)))
		case network.KConst:
			fmt.Fprintf(bw, " %t", arg != 0)
		case network.KCmp:
			fmt.Fprintf(bw, " %s", event.CmpOp(arg))
		case network.KCondVal:
			fmt.Fprintf(bw, " %s", net.Vals[arg])
		case network.KPow:
			fmt.Fprintf(bw, " %d", arg)
		}
		for _, k := range net.KidsOf(network.NodeID(id)) {
			fmt.Fprintf(bw, " n%d", k)
		}
		bw.WriteByte('\n')
	}
	for _, sym := range res.Symbols() {
		id, ok := res.BoolNode(sym)
		if !ok {
			id, _ = res.NumNode(sym)
		}
		fmt.Fprintf(bw, "%s = n%d\n", sym, id)
	}
	return bw.Flush()
}

// JSON output mode (-json): one machine-readable object on stdout carrying
// everything the human-readable table shows, plus the stage-timing
// breakdown, hash-cons accounting, and (with -metrics) the metrics
// registry.

type jsonRun struct {
	Program      string             `json:"program"`
	N            int                `json:"n"`
	Scheme       string             `json:"scheme"`
	Strategy     string             `json:"strategy"`
	Epsilon      float64            `json:"epsilon,omitempty"`
	Workers      int                `json:"workers"`
	Seed         int64              `json:"seed"`
	Objects      int                `json:"objects"`
	Variables    int                `json:"variables"`
	NetworkNodes int                `json:"network_nodes"`
	NodeKinds    map[string]int64   `json:"node_kinds"`
	TimedOut     bool               `json:"timed_out"`
	Targets      []jsonTarget       `json:"targets"`
	Stats        jsonStats          `json:"stats"`
	TimingsMs    jsonTimings        `json:"timings_ms"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
}

type jsonTarget struct {
	Name     string  `json:"name"`
	Lower    float64 `json:"lower"`
	Upper    float64 `json:"upper"`
	Estimate float64 `json:"estimate"`
}

type jsonStats struct {
	Branches            int64        `json:"branches"`
	Assignments         int64        `json:"assignments"`
	MaskUpdates         int64        `json:"mask_updates"`
	BudgetPrunes        int64        `json:"budget_prunes"`
	MaxDepth            int64        `json:"max_depth"`
	Jobs                int64        `json:"jobs"`
	HashConsHitRate     float64      `json:"hashcons_hit_rate"`
	SimulatedMakespanMs float64      `json:"simulated_makespan_ms,omitempty"`
	PerWorker           []jsonWorker `json:"per_worker,omitempty"`
}

type jsonWorker struct {
	Jobs        int64   `json:"jobs"`
	Branches    int64   `json:"branches"`
	BusyMs      float64 `json:"busy_ms"`
	Utilization float64 `json:"utilization"`
}

type jsonTimings struct {
	Lex            float64 `json:"lex"`
	Parse          float64 `json:"parse"`
	Translate      float64 `json:"translate"`
	Ground         float64 `json:"ground"`
	Compile        float64 `json:"compile"`
	CompileOrder   float64 `json:"compile_order"`
	CompileInit    float64 `json:"compile_init"`
	CompileExplore float64 `json:"compile_explore"`
	Total          float64 `json:"total"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeJSON emits the run report as one JSON object.
func writeJSON(w io.Writer, rep *core.Report, targets []prob.TargetBound, tr *obs.Trace, withMetrics bool) error {
	st := rep.Result.Stats
	out := jsonRun{
		Program:      *programFlag,
		N:            *nFlag,
		Scheme:       *schemeFlag,
		Strategy:     *stratFlag,
		Workers:      *workersFlag,
		Seed:         *seedFlag,
		Objects:      *nFlag,
		Variables:    rep.Net.Space.Len(),
		NetworkNodes: rep.Net.NumNodes(),
		NodeKinds:    rep.Net.KindCounts(),
		TimedOut:     rep.Result.TimedOut,
		Stats: jsonStats{
			Branches:            st.Branches,
			Assignments:         st.Assignments,
			MaskUpdates:         st.MaskUpdates,
			BudgetPrunes:        st.BudgetPrunes,
			MaxDepth:            st.MaxDepth,
			Jobs:                st.Jobs,
			HashConsHitRate:     rep.Ground.HitRate(),
			SimulatedMakespanMs: ms(st.SimulatedMakespan),
		},
		TimingsMs: jsonTimings{
			Lex:            ms(rep.Timings.Lex),
			Parse:          ms(rep.Timings.Parse),
			Translate:      ms(rep.Timings.Translate),
			Ground:         ms(rep.Timings.Ground),
			Compile:        ms(rep.Timings.Compile),
			CompileOrder:   ms(st.Timings.Order),
			CompileInit:    ms(st.Timings.Init),
			CompileExplore: ms(st.Timings.Explore),
			Total:          ms(rep.Timings.Total),
		},
	}
	if *stratFlag != "exact" {
		out.Epsilon = *epsFlag
	}
	for _, tb := range targets {
		out.Targets = append(out.Targets, jsonTarget{
			Name: tb.Name, Lower: tb.Lower, Upper: tb.Upper, Estimate: tb.Estimate(),
		})
	}
	makespan := st.Timings.Explore
	if st.SimulatedMakespan > 0 {
		makespan = st.SimulatedMakespan
	}
	for _, ws := range st.PerWorker {
		out.Stats.PerWorker = append(out.Stats.PerWorker, jsonWorker{
			Jobs: ws.Jobs, Branches: ws.Branches,
			BusyMs: ms(ws.Busy), Utilization: ws.Utilization(makespan),
		})
	}
	if withMetrics && tr != nil {
		out.Metrics = map[string]float64{}
		for _, mv := range tr.Metrics().Values() {
			out.Metrics[mv.Name] = mv.Value
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// printWorkerTable renders per-worker utilisation under -trace.
func printWorkerTable(w io.Writer, st prob.Stats) {
	if len(st.PerWorker) == 0 {
		return
	}
	makespan := st.Timings.Explore
	if st.SimulatedMakespan > 0 {
		makespan = st.SimulatedMakespan
	}
	fmt.Fprintln(w, "worker\tjobs\tbranches\tbusy\tutilization")
	for wi, ws := range st.PerWorker {
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%.1f%%\n",
			wi, ws.Jobs, ws.Branches, ws.Busy.Round(time.Microsecond),
			100*ws.Utilization(makespan))
	}
}

// printBudgetTimeline summarises the per-target budget-spend timeline.
func printBudgetTimeline(w io.Writer, tr *obs.Trace) {
	pts, dropped := tr.Timeline("budget.spend", 1).Points()
	if len(pts) == 0 {
		return
	}
	perTarget := map[int]float64{}
	for _, p := range pts {
		perTarget[p.Key] += p.Val
	}
	keys := make([]int, 0, len(perTarget))
	for k := range perTarget {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Fprintf(w, "budget spend timeline: %d events (%d dropped)\n", len(pts), dropped)
	for _, k := range keys {
		fmt.Fprintf(w, "  target %d: %.6f spent, first at %v, last at %v\n",
			k, perTarget[k], firstAt(pts, k), lastAt(pts, k))
	}
}

func firstAt(pts []obs.TimelinePoint, key int) time.Duration {
	for _, p := range pts {
		if p.Key == key {
			return p.At.Round(time.Microsecond)
		}
	}
	return 0
}

func lastAt(pts []obs.TimelinePoint, key int) time.Duration {
	var last time.Duration
	for _, p := range pts {
		if p.Key == key {
			last = p.At
		}
	}
	return last.Round(time.Microsecond)
}
