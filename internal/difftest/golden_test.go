package difftest

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"enframe/internal/core"
	"enframe/internal/encode"
	"enframe/internal/event"
	"enframe/internal/gen"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// The golden corpus freezes the verdict of the two compilation cores this
// repository used to carry: testdata/golden_bits.txt holds, for every case
// below × {exact, hybrid ε=0.05, circuit}, math.Float64bits of each target's
// lower and upper bound plus the five work counters. It was produced at
// commit 0068fa4 — the last one with the legacy pointer-DAG core — by
//
//	go test ./internal/difftest -run '^TestGoldenBits$' -update
//
// with the legacy core as the source: a line was written only after the
// legacy core, the flat core and the traced circuit agreed on it. The same
// command regenerates the file from the one remaining core (TESTING.md,
// "Regenerating the golden corpus"); review the diff like code. It was
// regenerated once since, when the builder began folding dist over two ⊗
// nodes (which reorders the walk's float sums), and every line it writes
// must now also pass the rational oracle of rational_test.go.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_bits.txt instead of checking it")

const goldenPath = "testdata/golden_bits.txt"

// goldenStrategies are the compiled configurations, in file order.
var goldenStrategies = []struct {
	name string
	opts prob.Options
}{
	{"exact", prob.Options{Strategy: prob.Exact}},
	{"hybrid", prob.Options{Strategy: prob.Hybrid, Epsilon: 0.05}},
	{"circuit", prob.Options{Strategy: prob.Circuit}},
}

// goldenCase is one network of the corpus. build returns nil for generator
// seeds that yield no comparable network; those are recorded as "skip" so a
// missing line is always an error.
type goldenCase struct {
	key   string
	build func(t *testing.T) *network.Net
	// truth is the case's rational oracle (rational_test.go).
	truth truthFunc
}

// goldenCases lists gen seeds 1–300 (the former cross-core sweep), every
// FuzzPipeline seed (f.Add list and committed corpus), and the three
// built-in programs — the generated nets average only ~7 branches.
func goldenCases(t *testing.T) []goldenCase {
	seeds := map[int64]bool{}
	for s := int64(1); s <= 300; s++ {
		seeds[s] = true
	}
	for _, s := range fuzzSeeds {
		seeds[s] = true
	}
	for _, s := range corpusSeeds(t) {
		seeds[s] = true
	}
	sorted := make([]int64, 0, len(seeds))
	for s := range seeds {
		sorted = append(sorted, s)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var cases []goldenCase
	for _, seed := range sorted {
		cases = append(cases, goldenCase{
			key:   fmt.Sprintf("gen:%d", seed),
			build: func(t *testing.T) *network.Net { return GenNet(gen.New(seed)) },
			truth: servedTruth(server.RunRequest{Data: server.DataSpec{Kind: "gen", Seed: seed}}),
		})
	}
	kmedoids := server.RunRequest{Program: "kmedoids", Data: server.DataSpec{N: 24, Vars: 10}}
	kmeans := server.RunRequest{Program: "kmeans", Data: server.DataSpec{N: 24, Vars: 10}, Targets: []string{"InCl["}}
	return append(cases,
		goldenCase{"builtin:kmedoids", func(t *testing.T) *network.Net { return servedNet(t, kmedoids) }, servedTruth(kmedoids)},
		goldenCase{"builtin:kmeans", func(t *testing.T) *network.Net { return servedNet(t, kmeans) }, servedTruth(kmeans)},
		goldenCase{"builtin:mcl", mclNet, netTruth(mclNet)},
	)
}

// corpusSeeds reads the seeds of the committed FuzzPipeline corpus.
func corpusSeeds(t *testing.T) []int64 {
	files, err := filepath.Glob("testdata/fuzz/FuzzPipeline/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzPipeline corpus: %v", err)
	}
	var seeds []int64
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "int64("); ok {
				s, err := strconv.ParseInt(strings.TrimSuffix(v, ")"), 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				seeds = append(seeds, s)
			}
		}
	}
	return seeds
}

// servedNet grounds a served request the way /v1/run does.
func servedNet(t *testing.T, req server.RunRequest) *network.Net {
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return art.Net
}

// servedTruth is the rational oracle of a served request (a gen seed's
// request is that seed's program and data): its program run over its data
// in every world.
func servedTruth(req server.RunRequest) truthFunc {
	return func(t *testing.T, names []string) []*big.Rat {
		spec, _, err := server.BuildSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		return programTruth(t, spec, names)
	}
}

// mclNet is Markov clustering over two 4-cliques joined by uncertain
// bridges, with uncertain edges inside the cliques as well: eight variables,
// co-clustering targets within and across the communities.
func mclNet(t *testing.T) *network.Net {
	const n = 8
	w := make([][]float64, n)
	lin := make([][]event.Expr, n)
	for i := range w {
		w[i] = make([]float64, n)
		lin[i] = make([]event.Expr, n)
		w[i][i] = 1
	}
	for c := 0; c < n; c += 4 {
		for i := c; i < c+4; i++ {
			for j := c; j < c+4; j++ {
				w[i][j] = 1
			}
		}
	}
	space := event.NewSpace()
	for i, e := range []struct {
		a, b int
		p    float64
	}{
		{3, 4, 0.5}, {0, 7, 0.4}, {1, 6, 0.3}, {2, 5, 0.6},
		{0, 1, 0.9}, {2, 3, 0.8}, {4, 5, 0.7}, {6, 7, 0.85},
	} {
		name := fmt.Sprintf("e%d", i)
		x := event.NewVar(space.Add(name, e.p), name)
		w[e.a][e.b], w[e.b][e.a] = 1, 1
		lin[e.a][e.b], lin[e.b][e.a] = x, x
	}
	net, err := (&encode.MCLSpec{
		Weights: w, EdgeLineage: lin, Space: space,
		R: 2, Iter: 3, Threshold: 0.3,
		Pairs: [][2]int{{0, 1}, {2, 3}, {3, 4}, {0, 7}, {1, 6}, {5, 6}},
	}).Network()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// goldenLine renders one result as its corpus line, minus the key and
// strategy fields.
func goldenLine(r *prob.Result) string {
	st := &r.Stats
	var sb strings.Builder
	fmt.Fprintf(&sb, "branches=%d assignments=%d mask_updates=%d budget_prunes=%d max_depth=%d",
		st.Branches, st.Assignments, st.MaskUpdates, st.BudgetPrunes, st.MaxDepth)
	for _, tb := range r.Targets {
		fmt.Fprintf(&sb, " %s=%016x:%016x", tb.Name, math.Float64bits(tb.Lower), math.Float64bits(tb.Upper))
	}
	return sb.String()
}

// goldenCompile compiles one strategy and renders its line. The exact line
// must be reproduced by a traced circuit before it counts, so -update never
// writes a verdict the two remaining roads disagree on; TestGoldenBits also
// holds every line it writes to the rational oracle (checkTruth).
func goldenCompile(t *testing.T, key string, net *network.Net, strategy string, opts prob.Options) string {
	res, err := prob.Compile(net, opts)
	if err != nil {
		t.Fatalf("%s %s: %v", key, strategy, err)
	}
	line := goldenLine(res)
	if opts.Strategy == prob.Exact {
		traced, err := prob.Compile(net, prob.Options{Strategy: prob.Circuit})
		if err != nil {
			t.Fatalf("%s: traced: %v", key, err)
		}
		if got := goldenLine(traced); got != line {
			t.Fatalf("%s: traced circuit diverged from exact\nexact  %s\ntraced %s", key, line, got)
		}
	}
	return line
}

// readGolden loads the corpus as "key strategy" → rest of line.
func readGolden(t *testing.T) map[string]string {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		switch {
		case len(parts) == 2 && parts[1] == "skip":
			golden[parts[0]] = "skip"
		case len(parts) == 3:
			golden[parts[0]+" "+parts[1]] = parts[2]
		default:
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// goldenBounds returns the corpus bounds of one case and strategy by target
// name, for tests that reach the same network by another road.
func goldenBounds(t *testing.T, golden map[string]string, key, strategy string) map[string][2]uint64 {
	line, ok := golden[key+" "+strategy]
	if !ok {
		t.Fatalf("%s has no line for %s %s", goldenPath, key, strategy)
	}
	return lineBounds(t, key, strategy, line)
}

// lineBounds parses the target bounds of one corpus line (minus its key and
// strategy fields) by target name.
func lineBounds(t *testing.T, key, strategy, line string) map[string][2]uint64 {
	out := map[string][2]uint64{}
	for _, f := range strings.Fields(line)[5:] {
		i := strings.LastIndexByte(f, '=')
		lo, err1 := strconv.ParseUint(f[i+1:i+17], 16, 64)
		hi, err2 := strconv.ParseUint(f[i+18:], 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %s %s: malformed target %q", goldenPath, key, strategy, f)
		}
		out[f[:i]] = [2]uint64{lo, hi}
	}
	return out
}

// TestGoldenBits holds the compilation core to the frozen corpus: every
// bound bit and every work counter of every case × strategy. Runs parallel
// per case, so `go test -race` also checks that concurrent compilations share
// no mutable state.
func TestGoldenBits(t *testing.T) {
	cases := goldenCases(t)
	var golden map[string]string
	if !*updateGolden {
		golden = readGolden(t)
	}
	var mu sync.Mutex
	lines := map[string][]string{}

	t.Run("cases", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.key, func(t *testing.T) {
				t.Parallel()
				var out []string
				net := c.build(t)
				if net == nil {
					out = []string{c.key + " skip"}
					if golden != nil && golden[c.key] != "skip" {
						t.Fatalf("%s yields no comparable network but the corpus has results for it", c.key)
					}
				} else {
					var truth []*big.Rat
					for _, s := range goldenStrategies {
						line := goldenCompile(t, c.key, net, s.name, s.opts)
						out = append(out, c.key+" "+s.name+" "+line)
						if golden == nil {
							// -update writes no line the rational oracle
							// rejects.
							bounds := lineBounds(t, c.key, s.name, line)
							names := targetNames(line)
							if truth == nil {
								truth = c.truth(t, names)
							}
							if err := checkTruth(s.name, s.opts.Epsilon, bounds, names, truth); err != nil {
								t.Fatalf("%s %v; not writing %s", c.key, err, goldenPath)
							}
							continue
						}
						want, ok := golden[c.key+" "+s.name]
						if !ok {
							t.Fatalf("%s has no line for %s %s; regenerate with -update and review the diff", goldenPath, c.key, s.name)
						}
						if line != want {
							t.Fatalf("%s %s diverged from the golden corpus\nwant %s\ngot  %s", c.key, s.name, want, line)
						}
					}
				}
				mu.Lock()
				lines[c.key] = out
				mu.Unlock()
			})
		}
	})

	if !*updateGolden || t.Failed() {
		return
	}
	var sb strings.Builder
	sb.WriteString("# Golden bits: <case> <strategy> <five work counters> <target>=<lower bits>:<upper bits>...\n")
	sb.WriteString("# Regenerate: go test ./internal/difftest -run '^TestGoldenBits$' -update (see golden_test.go)\n")
	for _, c := range cases {
		for _, l := range lines[c.key] {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", goldenPath, sb.Len())
}
