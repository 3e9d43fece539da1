package enframe

// One benchmark per figure of the paper's evaluation (§5), pinned to a
// representative point of each sweep, plus the ablation benchmarks listed
// in DESIGN.md. cmd/figures regenerates the full series; these benches make
// `go test -bench .` reproduce the orderings (naïve ≫ exact ≫ hybrid,
// lazy ≈ hybrid on positive correlations, certain points cheap, …) in
// minutes. Every compile bench runs the network /v1/run answers with:
// Figure 1's program translated over the generated data.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"enframe/internal/cluster"
	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/obs"
	"enframe/internal/prob"
	"enframe/internal/translate"
	"enframe/internal/vec"
)

// benchSpec builds the standard k-medoids benchmark task: k = 2, three
// iterations, the first two objects as initial medoids, Centre targets.
func benchSpec(b *testing.B, n int, cfg lineage.Config) core.Spec {
	b.Helper()
	objs, space, err := lineage.Attach(data.Points(n, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return core.Spec{
		Source: lang.KMedoidsSource, Objects: objs, Space: space,
		Params: []int{2, 3}, InitIndices: []int{0, 1}, Targets: []string{"Centre["},
	}
}

func positiveCfg(v int) lineage.Config {
	return lineage.Config{Scheme: lineage.Positive, NumVars: v, L: 8, Seed: 1}
}

func benchNet(b *testing.B, sp core.Spec) *network.Net {
	b.Helper()
	art, err := core.PrepareContext(context.Background(), sp)
	if err != nil {
		b.Fatal(err)
	}
	return art.Net
}

func benchCompile(b *testing.B, net *network.Net, opts prob.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := prob.Compile(net, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.TimedOut {
			b.Fatal("benchmark point timed out")
		}
	}
}

// --- Figure 6 (left): positive correlations, scalability in variables ----

func BenchmarkFig6LeftNaive(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cluster.Naive(context.Background(), sp.Objects, sp.Space, sp.Params[0], sp.Params[1], sp.InitIndices, sp.Metric); res.TimedOut {
			b.Fatal("naïve baseline timed out")
		}
	}
}

func BenchmarkFig6LeftExact(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkFig6LeftEager(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Eager, Epsilon: 0.1})
}

func BenchmarkFig6LeftLazy(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Lazy, Epsilon: 0.1})
}

func BenchmarkFig6LeftHybrid(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

func BenchmarkFig6LeftHybridD(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{
		Strategy: prob.Hybrid, Epsilon: 0.1,
		Workers: 16, JobDepth: 3, SimulateWorkers: true,
	})
}

// --- Figure 6 (right): scalability in the data-set fraction --------------

func BenchmarkFig6RightHybridHalf(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(20)))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

func BenchmarkFig6RightHybridFull(b *testing.B) {
	net := benchNet(b, benchSpec(b, 120, positiveCfg(20)))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

// --- Figure 7: mutex and conditional correlations -------------------------

func BenchmarkFig7MutexExact(b *testing.B) {
	net := benchNet(b, benchSpec(b, 56, lineage.Config{Scheme: lineage.Mutex, M: 12, Seed: 1}))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkFig7MutexHybrid(b *testing.B) {
	net := benchNet(b, benchSpec(b, 56, lineage.Config{Scheme: lineage.Mutex, M: 12, Seed: 1}))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

func BenchmarkFig7CondExact(b *testing.B) {
	net := benchNet(b, benchSpec(b, 32, lineage.Config{Scheme: lineage.Conditional, Seed: 1}))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkFig7CondHybrid(b *testing.B) {
	net := benchNet(b, benchSpec(b, 32, lineage.Config{Scheme: lineage.Conditional, Seed: 1}))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

// --- Figure 8: certain data points ----------------------------------------

func BenchmarkFig8Certain0(b *testing.B) {
	cfg := positiveCfg(24)
	net := benchNet(b, benchSpec(b, 120, cfg))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

func BenchmarkFig8Certain95(b *testing.B) {
	cfg := positiveCfg(24)
	cfg.CertainFraction = 0.95
	net := benchNet(b, benchSpec(b, 120, cfg))
	benchCompile(b, net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
}

// --- Figure 9: distributed compilation ------------------------------------

func BenchmarkFig9Workers4Job3(b *testing.B) {
	net := benchNet(b, benchSpec(b, 80, positiveCfg(20)))
	benchCompile(b, net, prob.Options{
		Strategy: prob.Hybrid, Epsilon: 0.1,
		Workers: 4, JobDepth: 3, SimulateWorkers: true,
	})
}

func BenchmarkFig9Workers16Job3(b *testing.B) {
	net := benchNet(b, benchSpec(b, 80, positiveCfg(20)))
	benchCompile(b, net, prob.Options{
		Strategy: prob.Hybrid, Epsilon: 0.1,
		Workers: 16, JobDepth: 3, SimulateWorkers: true,
	})
}

func BenchmarkFig9Workers16Job9(b *testing.B) {
	net := benchNet(b, benchSpec(b, 80, positiveCfg(20)))
	benchCompile(b, net, prob.Options{
		Strategy: prob.Hybrid, Epsilon: 0.1,
		Workers: 16, JobDepth: 9, SimulateWorkers: true,
	})
}

// --- Ablations (DESIGN.md) -------------------------------------------------

func BenchmarkAblationVarOrderFanout(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact, Heuristic: prob.FanoutOrder})
}

func BenchmarkAblationVarOrderInput(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact, Heuristic: prob.InputOrder})
}

func BenchmarkAblationMasking(b *testing.B) {
	net := benchNet(b, benchSpec(b, 40, positiveCfg(10)))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkAblationRecompute(b *testing.B) {
	net := benchNet(b, benchSpec(b, 40, positiveCfg(10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prob.CompileRef(net, prob.Options{Strategy: prob.Exact}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTargetsMedoids(b *testing.B) {
	net := benchNet(b, benchSpec(b, 60, positiveCfg(12)))
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkAblationTargetsAssignment(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	sp.Targets = []string{"InCl["}
	benchCompile(b, benchNet(b, sp), prob.Options{Strategy: prob.Exact})
}

// BenchmarkAblationTargetsCoOccurrence targets "do objects l and l+1 share
// a cluster?" for the pairs (0,1), (2,3), …, added as a program suffix.
func BenchmarkAblationTargetsCoOccurrence(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	var src strings.Builder
	src.WriteString(sp.Source)
	sp.Targets = nil
	for l := 0; l+1 < len(sp.Objects); l += 2 {
		fmt.Fprintf(&src, "CoOcc%d = reduce_or([InCl[i][%d] for i in range(0,k) if InCl[i][%d]])\n", l, l+1, l)
		sp.Targets = append(sp.Targets, fmt.Sprintf("CoOcc%d", l))
	}
	sp.Source = src.String()
	benchCompile(b, benchNet(b, sp), prob.Options{Strategy: prob.Exact})
}

// --- Pipeline micro-benchmarks --------------------------------------------

// BenchmarkNetworkBuildKMedoids prepares (lex → parse → translate+ground)
// a 100-object k-medoids network.
func BenchmarkNetworkBuildKMedoids(b *testing.B) {
	sp := benchSpec(b, 100, positiveCfg(20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PrepareContext(context.Background(), sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateKMedoids(b *testing.B) {
	objs, space, err := lineage.Attach(data.Points(24, 1), positiveCfg(10))
	if err != nil {
		b.Fatal(err)
	}
	prog := lang.MustParse(lang.KMedoidsSource)
	ext := translate.External{Objects: objs, Params: []int{2, 3}, InitIndices: []int{0, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.TranslateInto(prog, ext, network.NewBuilder(space, nil)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseKMedoids(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Parse(lang.KMedoidsSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeterministicKMedoids(b *testing.B) {
	pts := data.Points(200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMedoids(pts, nil, 2, 3, []int{0, 1}, vec.Euclidean)
	}
}

// --- Observability overhead ------------------------------------------------

// coreSpec builds the full-pipeline benchmark spec (source → probabilities).
func coreSpec(tb testing.TB, withObs bool) core.Spec {
	tb.Helper()
	objs, space, err := lineage.Attach(data.Points(24, 1), positiveCfg(10))
	if err != nil {
		tb.Fatal(err)
	}
	spec := core.Spec{
		Source:      lang.KMedoidsSource,
		Objects:     objs,
		Space:       space,
		Params:      []int{2, 3},
		InitIndices: []int{0, 1},
		Targets:     []string{"Centre["},
		Compile:     prob.Options{Strategy: prob.Exact},
	}
	if withObs {
		spec.Compile.Obs = obs.New("bench")
	}
	return spec
}

// BenchmarkPipelineEndToEnd runs the whole pipeline with observability
// disabled (nil trace — the no-op path).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	spec := coreSpec(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineEndToEndTraced runs the same pipeline with spans and
// metrics enabled; the delta against BenchmarkPipelineEndToEnd is the full
// observability cost.
func BenchmarkPipelineEndToEndTraced(b *testing.B) {
	spec := coreSpec(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Front-end paths --------------------------------------------------------

// BenchmarkFrontEndFused measures preparation (lex → parse → fused
// translate+ground).
func BenchmarkFrontEndFused(b *testing.B) {
	spec := coreSpec(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PrepareContext(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
