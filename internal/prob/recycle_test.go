package prob_test

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"enframe/internal/core"
	"enframe/internal/difftest"
	"enframe/internal/gen"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// TestRecycledBlocksNeverReadStale runs compilations with every mask block
// that enters the free list poisoned, and requires the answers of unpoisoned
// compilation: a golden-corpus subset bit for bit, the differential
// harness's distributed-vs-sequential and circuit-vs-exact checks, and two
// different networks of one block shape compiled in alternation. The
// distributed runs are the ones that recycle — their pristine states take
// blocks from the free list and their forks copy into recycled ones — and
// the sequential walks in between must be untouched by them. Run it under
// -race as well: the poisoning then also races any goroutine still holding
// a released block.
func TestRecycledBlocksNeverReadStale(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles part of the golden corpus")
	}
	nets := sameClassPair(t)
	// Reference answers on blocks no poisoned block was ever recycled into.
	runtime.GC()
	runtime.GC()
	want := make([][]string, len(nets))
	exact := make([]*prob.Result, len(nets))
	for i, net := range nets {
		want[i], exact[i] = interleavedLines(t, net)
	}

	released, restore := prob.PoisonReleasedBlocks()
	defer restore()

	t.Run("golden", func(t *testing.T) {
		golden := readGoldenSubset(t)
		compared := 0
		for key, build := range goldenSubset(t) {
			net := build()
			if net == nil {
				if golden[key] != "skip" {
					t.Errorf("%s yields no network but the corpus has results for it", key)
				}
				continue
			}
			for _, s := range []struct {
				name   string
				opts   prob.Options
				traced bool
			}{
				{"exact", prob.Options{Strategy: prob.Exact}, false},
				{"hybrid", prob.Options{Strategy: prob.Hybrid, Epsilon: 0.05}, false},
				{"circuit", prob.Options{}, true},
			} {
				var res *prob.Result
				var err error
				if s.traced {
					_, res, err = prob.CompileCircuit(context.Background(), net, s.opts)
				} else {
					res, err = prob.Compile(net, s.opts)
				}
				if err != nil {
					t.Fatalf("%s %s: %v", key, s.name, err)
				}
				if got, ok := golden[key+" "+s.name]; !ok || got != resultLine(res) {
					t.Errorf("%s %s off the corpus on recycled blocks\ngot    %s\ncorpus %s", key, s.name, resultLine(res), got)
				}
				compared++
			}
		}
		t.Logf("%d corpus lines reproduced", compared)
	})

	t.Run("difftest", func(t *testing.T) {
		// Check crosses the distributed runner (W=2, d=3, exact and hybrid)
		// with the sequential compile and the traced circuit with exact.
		for seed := int64(1); seed <= 40; seed++ {
			if err := difftest.Check(seed, difftest.Quick()); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		for round := 0; round < 2; round++ {
			for i, net := range nets {
				got, _ := interleavedLines(t, net)
				for m := range got {
					if got[m] != want[i][m] {
						t.Errorf("round %d, net %d, run %d diverged on recycled blocks\ngot  %s\nwant %s",
							round, i, m, got[m], want[i][m])
					}
				}
				// Two real workers trade blocks in a scheduling-dependent
				// order, so only the ε-contract against exact is fixed.
				res, err := prob.Compile(net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1, Workers: 2, JobDepth: 3})
				if err != nil {
					t.Fatal(err)
				}
				for ti, tb := range res.Targets {
					x := exact[i].Targets[ti].Lower
					if tb.Lower > x+1e-9 || tb.Upper < x-1e-9 || tb.Gap() > 0.2+1e-9 {
						t.Errorf("round %d, net %d, W=2: %s = [%g, %g] against exact %g",
							round, i, tb.Name, tb.Lower, tb.Upper, x)
					}
				}
			}
		}
	})

	if released() == 0 {
		t.Fatal("no mask block was released, so none was poisoned")
	}
}

// interleavedLines renders the deterministic compilations of one network —
// sequential exact, and the one-goroutine distributed runner, whose forks
// and adoptions recycle blocks, under Exact and Hybrid — and returns the
// sequential exact result too.
func interleavedLines(t *testing.T, net *network.Net) ([]string, *prob.Result) {
	var out []string
	var exact *prob.Result
	for _, opts := range []prob.Options{
		{Strategy: prob.Exact},
		{Strategy: prob.Exact, Workers: 2, JobDepth: 3, SimulateWorkers: true},
		{Strategy: prob.Hybrid, Epsilon: 0.02, Workers: 2, JobDepth: 2, SimulateWorkers: true},
		{Strategy: prob.Hybrid, Epsilon: 0.1, Workers: 2, JobDepth: 3, SimulateWorkers: true},
	} {
		res, err := prob.Compile(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		if exact == nil {
			exact = res
		}
		out = append(out, fmt.Sprintf("jobs=%d %s", res.Stats.Jobs, resultLine(res)))
	}
	return out, exact
}

// sameClassPair returns two k-medoids networks of different data whose mask
// blocks share a free-list shape.
func sameClassPair(t *testing.T) []*network.Net {
	var nets []*network.Net
	for seed := int64(1); seed <= 8; seed++ {
		net := servedNet(t, server.RunRequest{
			Program: "kmedoids",
			Data:    server.DataSpec{N: 24, Scheme: "positive", Vars: 10, L: 8, M: 12, Group: 4, Seed: seed},
			Params:  server.ParamSpec{K: 2, Iter: 3},
			Targets: []string{"Centre["},
		})
		for _, o := range nets {
			if prob.SameBlockClass(o, net) && o.NumNodes() != net.NumNodes() {
				return []*network.Net{o, net}
			}
		}
		nets = append(nets, net)
	}
	t.Fatal("no two k-medoids networks of data seeds 1–8 share a block shape")
	return nil
}

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

// goldenSubset is part of internal/difftest's golden corpus: generator seeds
// 1–60 and two of the built-in programs.
func goldenSubset(t *testing.T) map[string]func() *network.Net {
	cases := map[string]func() *network.Net{
		"builtin:kmedoids": func() *network.Net {
			return servedNet(t, server.RunRequest{Program: "kmedoids", Data: server.DataSpec{N: 24, Vars: 10}})
		},
		"builtin:kmeans": func() *network.Net {
			return servedNet(t, server.RunRequest{Program: "kmeans", Data: server.DataSpec{N: 24, Vars: 10}, Targets: []string{"InCl["}})
		},
	}
	for seed := int64(1); seed <= 60; seed++ {
		cases[fmt.Sprintf("gen:%d", seed)] = func() *network.Net { return difftest.GenNet(gen.New(seed)) }
	}
	return cases
}

// readGoldenSubset loads the corpus as "key strategy" → the rest of the line,
// and "key" → "skip" for seeds without a network.
func readGoldenSubset(t *testing.T) map[string]string {
	f, err := os.Open("../difftest/testdata/golden_bits.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), " ", 3)
		switch {
		case len(parts) == 2 && parts[1] == "skip":
			golden[parts[0]] = "skip"
		case len(parts) == 3 && !strings.HasPrefix(parts[0], "#"):
			golden[parts[0]+" "+parts[1]] = parts[2]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// resultLine renders a result as a golden-corpus line without its key and
// strategy: the five work counters, then each target's bound bits.
func resultLine(r *prob.Result) string {
	st := &r.Stats
	var sb strings.Builder
	fmt.Fprintf(&sb, "branches=%d assignments=%d mask_updates=%d budget_prunes=%d max_depth=%d",
		st.Branches, st.Assignments, st.MaskUpdates, st.BudgetPrunes, st.MaxDepth)
	for _, tb := range r.Targets {
		fmt.Fprintf(&sb, " %s=%016x:%016x", tb.Name, math.Float64bits(tb.Lower), math.Float64bits(tb.Upper))
	}
	return sb.String()
}
