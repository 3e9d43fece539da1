// Command figures regenerates every figure of the paper's evaluation (§5):
//
//	Fig. 6 (left)  — naïve/exact/eager/lazy/hybrid/hybrid-d vs #variables,
//	                 positive correlations (l=8), f ∈ {50%, 100%}
//	Fig. 6 (right) — eager/lazy/hybrid vs fraction of the data set,
//	                 v ∈ {10, 20, 30}
//	Fig. 7 (left)  — naïve/exact/hybrid/hybrid-d vs #objects, mutex
//	                 correlations (m=12); #variables shown alongside
//	Fig. 7 (right) — the same under conditional (Markov-chain) correlations
//	Fig. 8         — hybrid/hybrid-d on large generated data, certain
//	                 fraction c ∈ {0%, 95%}
//	Fig. 9         — hybrid-d vs #workers for job sizes d ∈ {3, 6, 9}
//	ablations      — §5 "further findings" plus DESIGN.md design choices
//
// Every point runs the network /v1/run answers with: Fig. 1's program
// (lang.KMedoidsSource) translated over the same generated data, with
// Centre[i][l] targets. The naïve baseline runs cluster.KMedoids, which
// follows the same semantics, in every possible world.
//
// Sizes and timeouts are scaled down from the paper's 3600-second budget;
// pass -scale and -timeout to enlarge sweeps. Output is TSV: one row per
// (figure, series, x) with wall-clock seconds and work counters. hybrid-d
// rows report the simulated makespan of a 16-worker cluster (the paper
// simulated its cluster on one machine too; this container has one CPU).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"enframe/internal/cluster"
	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/vec"
)

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate: 6l, 6r, 7l, 7r, 8, 9, ablations, all")
	timeoutFlag = flag.Duration("timeout", 20*time.Second, "per-point timeout (the paper used 3600s)")
	scaleFlag   = flag.Float64("scale", 1, "multiply sweep sizes by this factor")
	seedFlag    = flag.Int64("seed", 1, "base random seed")
	epsFlag     = flag.Float64("eps", 0.1, "absolute approximation error ε")
)

const (
	kClusters  = 2
	iterations = 3
)

func main() {
	flag.Parse()
	fmt.Println("# ENFrame figure regeneration — wall-clock seconds per point")
	fmt.Println("# timeout =", *timeoutFlag, " eps =", *epsFlag, " k =", kClusters, " iter =", iterations)
	fmt.Println("figure\tseries\tx\tseconds\tstatus\tdetail")
	switch *figFlag {
	case "6l":
		fig6Left()
	case "6r":
		fig6Right()
	case "7l":
		fig7(lineage.Mutex)
	case "7r":
		fig7(lineage.Conditional)
	case "8":
		fig8()
	case "9":
		fig9()
	case "ablations":
		ablations()
	case "all":
		fig6Left()
		fig6Right()
		fig7(lineage.Mutex)
		fig7(lineage.Conditional)
		fig8()
		fig9()
		ablations()
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

func scaled(n int) int {
	v := int(float64(n) * *scaleFlag)
	if v < 2 {
		v = 2
	}
	return v
}

// point emits one TSV row.
func point(fig, series string, x any, seconds float64, status, detail string) {
	fmt.Printf("%s\t%s\t%v\t%.4f\t%s\t%s\n", fig, series, x, seconds, status, detail)
}

// spec builds a k-medoids task over n synthetic sensor readings with the
// given lineage configuration.
func spec(n int, cfg lineage.Config) core.Spec {
	return kmedoids(data.Points(n, *seedFlag), cfg)
}

// kmedoids is Fig. 1's program over the points, as /v1/run builds it: the
// first kClusters objects are the initial medoids.
func kmedoids(pts []vec.Vec, cfg lineage.Config) core.Spec {
	objs, space, err := lineage.Attach(pts, cfg)
	if err != nil {
		panic(err)
	}
	init := make([]int, kClusters)
	for i := range init {
		init[i] = i
	}
	return core.Spec{
		Source:      lang.KMedoidsSource,
		Objects:     objs,
		Space:       space,
		Params:      []int{kClusters, iterations},
		InitIndices: init,
		Targets:     []string{"Centre["},
	}
}

type algorithm struct {
	name string
	opts prob.Options
}

func algorithms(eps float64, withNaive, withAll bool) []algorithm {
	algs := []algorithm{}
	if withNaive {
		algs = append(algs, algorithm{name: "naive"})
	}
	algs = append(algs, algorithm{name: "exact", opts: prob.Options{Strategy: prob.Exact}})
	if withAll {
		algs = append(algs,
			algorithm{name: "eager", opts: prob.Options{Strategy: prob.Eager, Epsilon: eps}},
			algorithm{name: "lazy", opts: prob.Options{Strategy: prob.Lazy, Epsilon: eps}},
		)
	}
	algs = append(algs,
		algorithm{name: "hybrid", opts: prob.Options{Strategy: prob.Hybrid, Epsilon: eps}},
		algorithm{name: "hybrid-d", opts: prob.Options{
			Strategy: prob.Hybrid, Epsilon: eps,
			Workers: 16, JobDepth: 3, SimulateWorkers: true,
		}},
	)
	return algs
}

// run executes one algorithm on one task, with per-series timeout skipping
// handled by the caller.
func run(sp core.Spec, alg algorithm) (seconds float64, status, detail string) {
	if alg.name == "naive" {
		ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
		defer cancel()
		res := cluster.Naive(ctx, sp.Objects, sp.Space, sp.Params[0], sp.Params[1], sp.InitIndices, sp.Metric)
		status = "ok"
		if res.TimedOut {
			status = "timeout"
		}
		return res.Stats.Duration.Seconds(), status, fmt.Sprintf("worlds=%d", res.Stats.Branches)
	}
	sp.Compile = alg.opts
	sp.Compile.Timeout = *timeoutFlag
	rep, err := core.Run(sp)
	if err != nil {
		return 0, "error", err.Error()
	}
	res := rep.Result
	secs := res.Stats.Duration.Seconds()
	detail = fmt.Sprintf("branches=%d nodes=%d", res.Stats.Branches, rep.Net.NumNodes())
	if sp.Compile.SimulateWorkers {
		secs = res.Stats.SimulatedMakespan.Seconds()
		detail += fmt.Sprintf(" jobs=%d", res.Stats.Jobs)
	}
	if res.TimedOut {
		return secs, "timeout", detail
	}
	return secs, "ok", detail
}

// sweepSeries runs one algorithm across increasing x values, skipping the
// rest of a series after its first timeout (larger points only get slower).
func sweepSeries(fig string, series string, xs []int, mk func(x int) core.Spec, alg algorithm) {
	for _, x := range xs {
		sp := mk(x)
		secs, status, detail := run(sp, alg)
		point(fig, series, x, secs, status, detail+fmt.Sprintf(" v=%d", sp.Space.Len()))
		if status == "timeout" {
			break
		}
	}
}

// fig6Left: scalability in the number of variables under positive
// correlations, for the full and half data set.
func fig6Left() {
	n100 := scaled(120)
	vars := []int{10, 14, 18, 22, 26, 30}
	for _, f := range []struct {
		label string
		n     int
	}{{"f=100%", n100}, {"f=50%", n100 / 2}} {
		for _, alg := range algorithms(*epsFlag, true, true) {
			series := alg.name + "," + f.label
			sweepSeries("6l", series, vars, func(v int) core.Spec {
				return spec(f.n, lineage.Config{
					Scheme: lineage.Positive, NumVars: v, L: 8, Seed: *seedFlag,
				})
			}, alg)
		}
	}
}

// fig6Right: scalability of the approximations in the size of the data set.
func fig6Right() {
	full := scaled(240)
	fractions := []int{10, 25, 50, 75, 100}
	approx := []algorithm{
		{name: "eager", opts: prob.Options{Strategy: prob.Eager, Epsilon: *epsFlag}},
		{name: "lazy", opts: prob.Options{Strategy: prob.Lazy, Epsilon: *epsFlag}},
		{name: "hybrid", opts: prob.Options{Strategy: prob.Hybrid, Epsilon: *epsFlag}},
	}
	for _, v := range []int{10, 20, 30} {
		for _, alg := range approx {
			series := fmt.Sprintf("%s,v=%d", alg.name, v)
			sweepSeries("6r", series, fractions, func(f int) core.Spec {
				return spec(full*f/100, lineage.Config{
					Scheme: lineage.Positive, NumVars: v, L: 8, Seed: *seedFlag,
				})
			}, alg)
		}
	}
}

// fig7: scalability in the number of objects under mutex or conditional
// correlations (the variable count grows with n).
func fig7(scheme lineage.Scheme) {
	fig := "7l"
	if scheme == lineage.Conditional {
		fig = "7r"
	}
	var sizes []int
	if scheme == lineage.Mutex {
		sizes = []int{36, 64, 100, 144, 200}
	} else {
		sizes = []int{20, 32, 44, 56, 72}
	}
	for i := range sizes {
		sizes[i] = scaled(sizes[i])
	}
	for _, alg := range algorithms(*epsFlag, true, false) {
		sweepSeries(fig, alg.name, sizes, func(n int) core.Spec {
			return spec(n, lineage.Config{
				Scheme: scheme, M: 12, Seed: *seedFlag,
			})
		}, alg)
	}
}

// fig8: large generated data sets with certain points.
func fig8() {
	for _, c := range []struct {
		label string
		frac  float64
		sizes []int
	}{
		{"c=0%", 0, []int{100, 200, 400}},
		{"c=95%", 0.95, []int{100, 200, 400, 800, 1600}},
	} {
		for _, alg := range []algorithm{
			{name: "hybrid", opts: prob.Options{Strategy: prob.Hybrid, Epsilon: *epsFlag}},
			{name: "hybrid-d", opts: prob.Options{Strategy: prob.Hybrid, Epsilon: *epsFlag,
				Workers: 16, JobDepth: 3, SimulateWorkers: true}},
		} {
			series := alg.name + "," + c.label
			sizes := make([]int, len(c.sizes))
			for i, s := range c.sizes {
				sizes[i] = scaled(s)
			}
			sweepSeries("8", series, sizes, func(n int) core.Spec {
				return spec(n, lineage.Config{
					Scheme: lineage.Positive, NumVars: 30, L: 8,
					CertainFraction: c.frac, Seed: *seedFlag,
				})
			}, alg)
		}
	}
}

// fig9: distributed performance as a function of the number of workers.
func fig9() {
	n := scaled(80)
	art, err := core.PrepareContext(context.Background(),
		spec(n, lineage.Config{Scheme: lineage.Positive, NumVars: 24, L: 8, Seed: *seedFlag}))
	if err != nil {
		point("9", "setup", n, 0, "error", err.Error())
		return
	}
	for _, d := range []int{3, 6, 9} {
		for _, w := range []int{1, 2, 4, 8, 12, 16, 20} {
			opts := prob.Options{
				Strategy: prob.Hybrid, Epsilon: *epsFlag,
				Workers: w, JobDepth: d, SimulateWorkers: true,
				Timeout: *timeoutFlag * 4,
			}
			res, err := prob.Compile(art.Net, opts)
			if err != nil {
				point("9", fmt.Sprintf("d=%d", d), w, 0, "error", err.Error())
				continue
			}
			secs := res.Stats.SimulatedMakespan.Seconds()
			status := "ok"
			if res.TimedOut {
				status = "timeout"
			}
			point("9", fmt.Sprintf("d=%d", d), w, secs, status,
				fmt.Sprintf("jobs=%d", res.Stats.Jobs))
		}
	}
}

// ablations: the paper's "further findings" plus DESIGN.md design choices.
func ablations() {
	n := scaled(60)
	base := lineage.Config{Scheme: lineage.Positive, NumVars: 16, L: 8, Seed: *seedFlag}

	// Iterations scale linearly (§5 "further findings").
	for _, iter := range []int{1, 2, 3, 4, 5} {
		sp := spec(n, base)
		sp.Params = []int{kClusters, iter}
		secs, status, detail := run(sp, algorithm{name: "exact", opts: prob.Options{Strategy: prob.Exact}})
		point("ablations", "iterations,exact", iter, secs, status, detail)
	}

	// Target sets have minor influence (§5 "further findings"): medoids,
	// assignments, and "do objects l and l+1 share a cluster?" for the
	// pairs (0,1), (2,3), … as a program suffix.
	for _, tgt := range []string{"medoids", "assignment", "cooccurrence"} {
		sp := spec(n, base)
		switch tgt {
		case "assignment":
			sp.Targets = []string{"InCl["}
		case "cooccurrence":
			var src strings.Builder
			src.WriteString(sp.Source)
			sp.Targets = nil
			for l := 0; l+1 < n; l += 2 {
				fmt.Fprintf(&src, "CoOcc%d = reduce_or([InCl[i][%d] for i in range(0,k) if InCl[i][%d]])\n", l, l+1, l)
				sp.Targets = append(sp.Targets, fmt.Sprintf("CoOcc%d", l))
			}
			sp.Source = src.String()
		}
		secs, status, detail := run(sp, algorithm{name: "exact", opts: prob.Options{Strategy: prob.Exact}})
		point("ablations", "targets,exact", tgt, secs, status, detail)
	}

	// Feature-space dimension has no influence (§5 "further findings"):
	// the network only sees the constant distance matrix.
	for _, dim := range []int{1, 2, 4, 8} {
		pts := make([]vec.Vec, n)
		rngPts := data.Points(n, *seedFlag)
		for i := range pts {
			v := make(vec.Vec, dim)
			for d := 0; d < dim; d++ {
				v[d] = rngPts[i][d%2]
			}
			pts[i] = v
		}
		secs, status, detail := run(kmedoids(pts, base), algorithm{name: "exact", opts: prob.Options{Strategy: prob.Exact}})
		point("ablations", "dimensions,exact", dim, secs, status, detail)
	}

	// Variable order: fanout heuristic vs input order.
	for _, h := range []struct {
		name string
		ord  prob.OrderHeuristic
	}{{"fanout", prob.FanoutOrder}, {"input", prob.InputOrder}} {
		secs, status, detail := run(spec(n, base), algorithm{name: "exact", opts: prob.Options{Strategy: prob.Exact, Heuristic: h.ord}})
		point("ablations", "varorder,"+h.name, "-", secs, status, detail)
	}

	// Masking compiler vs recompute reference evaluator.
	art, err := core.PrepareContext(context.Background(),
		spec(scaled(40), lineage.Config{Scheme: lineage.Positive, NumVars: 12, L: 8, Seed: *seedFlag}))
	if err == nil {
		t0 := time.Now()
		_, err = prob.Compile(art.Net, prob.Options{Strategy: prob.Exact, Timeout: *timeoutFlag})
		point("ablations", "engine,masking", "-", time.Since(t0).Seconds(), okOr(err), "")
		t0 = time.Now()
		_, err = prob.CompileRef(art.Net, prob.Options{Strategy: prob.Exact, Timeout: *timeoutFlag})
		point("ablations", "engine,recompute", "-", time.Since(t0).Seconds(), okOr(err), "")
	}

	// Error budget sensitivity (§5: performance is highly sensitive to ε).
	for _, eps := range []float64{0.01, 0.05, 0.1, 0.2} {
		sp := spec(n, lineage.Config{Scheme: lineage.Positive, NumVars: 20, L: 8, Seed: *seedFlag})
		secs, status, detail := run(sp, algorithm{name: "hybrid", opts: prob.Options{Strategy: prob.Hybrid, Epsilon: eps}})
		point("ablations", "epsilon,hybrid", fmt.Sprintf("%g", eps), secs, status, detail)
	}
}

func okOr(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}
