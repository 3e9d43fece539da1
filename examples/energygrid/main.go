// Energygrid: the paper's evaluation workload (§5) in miniature.
//
// Hourly readings from partial-discharge and network-load sensors in an
// energy distribution network are clustered with probabilistic k-medoids to
// separate operating regimes (healthy operation vs incipient insulation
// faults). Readings are uncertain — sensors drop out, and readings within a
// small time window share lineage (group size 4) — with positive
// correlations (each lineage event is a disjunction of l = 8 literals).
//
// The example compares the naïve baseline (cluster in every world) against
// exact compilation and hybrid ε-approximation of Figure 1's translated
// program, and prints the regimes the elected medoids fall into.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"enframe/internal/cluster"
	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

func main() {
	const (
		n    = 40
		v    = 12 // random variables
		k    = 2
		iter = 3
	)
	readings := data.Generate(data.Config{N: n, Seed: 7})
	points := data.Points(n, 7)
	objs, space, err := lineage.Attach(points, lineage.Config{
		Scheme:  lineage.Positive,
		NumVars: v,
		L:       8,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	init := []int{0, 1}

	// Naïve baseline: cluster explicitly in each of the 2^v worlds.
	naive := cluster.Naive(context.Background(), objs, space, k, iter, init, nil)

	// ENFrame: translate and ground the program once, then compile the
	// event network exactly and approximately.
	art, err := core.PrepareContext(context.Background(), core.Spec{
		Source: lang.KMedoidsSource, Objects: objs, Space: space,
		Params: []int{k, iter}, InitIndices: init, Targets: []string{"Centre["},
	})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	exact, err := prob.Compile(art.Net, prob.Options{Strategy: prob.Exact})
	if err != nil {
		log.Fatal(err)
	}
	exactT := time.Since(t0)
	t0 = time.Now()
	hybrid, err := prob.Compile(art.Net, prob.Options{Strategy: prob.Hybrid, Epsilon: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	hybridT := time.Since(t0)

	fmt.Printf("%d readings, %d variables (%d worlds), %d-node event network\n",
		n, v, 1<<v, art.Net.NumNodes())
	fmt.Printf("naïve per-world clustering: %8v  (%d worlds)\n", naive.Stats.Duration.Round(time.Millisecond), naive.Stats.Branches)
	fmt.Printf("exact compilation:          %8v  (%d branches)\n", exactT.Round(time.Millisecond), exact.Stats.Branches)
	fmt.Printf("hybrid ε=0.1:               %8v  (%d branches)\n\n", hybridT.Round(time.Millisecond), hybrid.Stats.Branches)

	fmt.Println("most probable medoids (exact vs naïve vs hybrid bounds):")
	for i := 0; i < k; i++ {
		bestL, bestP := -1, 0.0
		for l := range objs {
			tb, _ := exact.Target(fmt.Sprintf("Centre[%d][%d]", i, l))
			if tb.Estimate() > bestP {
				bestL, bestP = l, tb.Estimate()
			}
		}
		name := fmt.Sprintf("Centre[%d][%d]", i, bestL)
		nb, _ := naive.Target(name)
		hb, _ := hybrid.Target(name)
		fmt.Printf("  cluster %d: reading #%d (regime %q, load=%.0f, pd=%.0f)\n",
			i, bestL, readings[bestL].Regime, readings[bestL].Load, readings[bestL].PD)
		fmt.Printf("    exact %.4f   naïve %.4f   hybrid [%.4f, %.4f]\n",
			bestP, nb.Lower, hb.Lower, hb.Upper)
	}
}
