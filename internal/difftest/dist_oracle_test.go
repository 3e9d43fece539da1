package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// The distributed-vs-local oracle over real TCP: for a spread of generator
// seeds, exact compilation shipped to dist workers must reproduce the
// sequential in-process compile bit for bit, and the budgeted strategy must
// keep its ε-contract. This is the network twin of checkProgram's
// in-process distributed stage — it additionally covers the wire codec, the
// worker's spec re-resolution, and the coordinator's ordered merge.

// startOracleWorkers boots in-process TCP workers resolving specs the same
// way `enframe worker` does.
func startOracleWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := dist.NewWorker(dist.WorkerConfig{
			Resolver: func(specJSON []byte) (core.Spec, string, error) {
				var req server.RunRequest
				if err := json.Unmarshal(specJSON, &req); err != nil {
					return core.Spec{}, "", err
				}
				return server.BuildSpec(req)
			},
			Slots: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Serve() }()
		t.Cleanup(func() { _ = w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func TestDistributedOracleOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP oracle sweep is not short")
	}
	ctx := context.Background()
	pool, err := dist.NewPool(ctx, dist.PoolConfig{Addrs: startOracleWorkers(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })

	golden := readGolden(t)
	checked := 0
	for seed := int64(1); seed <= 25; seed++ {
		req := server.RunRequest{Data: server.DataSpec{Kind: "gen", Seed: seed}}
		spec, key, err := server.BuildSpec(req)
		if err != nil {
			// Some seeds generate programs without Boolean targets; the
			// sweep below asserts enough seeds survive.
			continue
		}
		checked++
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			t.Fatalf("seed %d: prepare: %v", seed, err)
		}
		specJSON, err := json.Marshal(server.ArtifactRequest(req))
		if err != nil {
			t.Fatal(err)
		}

		for _, depth := range []int{1, 3} {
			opts := prob.Options{Strategy: prob.Exact, JobDepth: depth}
			opts.Order = art.Order(opts.Heuristic)
			want, err := prob.CompileCtx(ctx, art.Net, opts)
			if err != nil {
				t.Fatalf("seed %d depth %d: local: %v", seed, depth, err)
			}
			exec := pool.Session(key, specJSON, dist.FromOptions(opts))
			got, err := prob.CompileExec(ctx, art.Net, opts, exec)
			if err != nil {
				t.Fatalf("seed %d depth %d: remote: %v", seed, depth, err)
			}
			if f := checkSame(got, want, fmt.Sprintf("tcp seed=%d depth=%d", seed, depth)); f != nil {
				t.Fatal(f)
			}
			for i, gt := range got.Targets {
				wt := want.Targets[i]
				if math.Float64bits(gt.Lower) != math.Float64bits(wt.Lower) ||
					math.Float64bits(gt.Upper) != math.Float64bits(wt.Upper) {
					t.Fatalf("seed %d depth %d: %s not bit-identical: [%x,%x] vs [%x,%x]",
						seed, depth, gt.Name,
						math.Float64bits(gt.Lower), math.Float64bits(gt.Upper),
						math.Float64bits(wt.Lower), math.Float64bits(wt.Upper))
				}
			}

			// Close the loop against the frozen verdict: the corpus holds
			// the same seeds' exact bounds as the legacy core computed them
			// on the same network, so the bits that crossed the wire must
			// be those bits.
			frozen := goldenBounds(t, golden, fmt.Sprintf("gen:%d", seed), "exact")
			for _, gt := range got.Targets {
				ft, ok := frozen[gt.Name]
				if !ok {
					t.Fatalf("seed %d: golden corpus has no target %s", seed, gt.Name)
				}
				if math.Float64bits(gt.Lower) != ft[0] || math.Float64bits(gt.Upper) != ft[1] {
					t.Fatalf("seed %d depth %d: %s: remote [%x,%x] vs golden [%x,%x]",
						seed, depth, gt.Name,
						math.Float64bits(gt.Lower), math.Float64bits(gt.Upper), ft[0], ft[1])
				}
			}
		}

		// Budgeted strategy over the wire: the ε-contract must hold even
		// though job budgets were withdrawn and merged remotely.
		const eps = 0.05
		opts := prob.Options{Strategy: prob.Hybrid, Epsilon: eps, JobDepth: 2}
		opts.Order = art.Order(opts.Heuristic)
		exec := pool.Session(key, specJSON, dist.FromOptions(opts))
		got, err := prob.CompileExec(ctx, art.Net, opts, exec)
		if err != nil {
			t.Fatalf("seed %d hybrid: remote: %v", seed, err)
		}
		for _, tb := range got.Targets {
			if tb.Lower < -tol || tb.Upper > 1+tol || tb.Lower > tb.Upper+tol {
				t.Fatalf("seed %d hybrid: %s has insane bounds [%g, %g]", seed, tb.Name, tb.Lower, tb.Upper)
			}
			if gap := tb.Upper - tb.Lower; gap > 2*eps+tol {
				t.Fatalf("seed %d hybrid: %s gap %g exceeds 2ε=%g", seed, tb.Name, gap, 2*eps)
			}
		}
	}
	if checked < 15 {
		t.Fatalf("only %d/25 seeds produced Boolean targets; sweep too thin", checked)
	}
}
