package enframe

// One benchmark per figure of the paper's evaluation (§5), pinned to a
// representative point of each sweep, plus the ablation benchmarks listed
// in DESIGN.md. cmd/figures regenerates the full series; these benches make
// `go test -bench .` reproduce the orderings (naïve ≫ exact ≫ hybrid,
// lazy ≈ hybrid on positive correlations, certain points cheap, …) in
// minutes.

import (
	"context"
	"testing"

	"enframe/internal/cluster"
	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/encode"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/obs"
	"enframe/internal/prob"
	"enframe/internal/translate"
	"enframe/internal/vec"
)

// benchSpec builds the standard k-medoids benchmark task.
func benchSpec(b *testing.B, n int, cfg lineage.Config) *encode.KMedoidsSpec {
	b.Helper()
	objs, space, err := lineage.Attach(data.Points(n, 1), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return &encode.KMedoidsSpec{
		Objects: objs, Space: space, K: 2, Iter: 3,
		Targets: encode.TargetsMedoids,
	}
}

func positiveCfg(v int) lineage.Config {
	return lineage.Config{Scheme: lineage.Positive, NumVars: v, L: 8, Seed: 1}
}

func benchNet(b *testing.B, sp *encode.KMedoidsSpec) *network.Net {
	b.Helper()
	net, err := sp.Network()
	if err != nil {
		b.Fatal(err)
	}
	return net
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
		if _, err := sp.Naive(encode.NaiveOptions{}); err != nil {
			b.Fatal(err)
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

func BenchmarkAblationNaivePlain(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Naive(encode.NaiveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNaiveMemoised(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Naive(encode.NaiveOptions{Memoise: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTargetsMedoids(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	sp.Targets = encode.TargetsMedoids
	net := benchNet(b, sp)
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkAblationTargetsAssignment(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	sp.Targets = encode.TargetsAssignment
	net := benchNet(b, sp)
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

func BenchmarkAblationTargetsCoOccurrence(b *testing.B) {
	sp := benchSpec(b, 60, positiveCfg(12))
	sp.Targets = encode.TargetsCoOccurrence
	net := benchNet(b, sp)
	benchCompile(b, net, prob.Options{Strategy: prob.Exact})
}

// --- Pipeline micro-benchmarks --------------------------------------------

func BenchmarkNetworkBuildKMedoids(b *testing.B) {
	sp := benchSpec(b, 100, positiveCfg(20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Network(); err != nil {
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
