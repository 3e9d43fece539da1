// Approximation: the three ε-approximation strategies of §4.3 side by side,
// plus distributed compilation (§4.4).
//
// All strategies compute, for every target, bounds [L, U] with U − L ≤ 2ε
// and an estimate within ε of the true probability. They differ in where
// the error budget is spent: eager cuts the leftmost decision-tree
// branches, lazy stops once all bounds are tight (cutting the rightmost
// branches — very effective under positive correlations, where the tree is
// deeply unbalanced), and hybrid halves the budget at every split, pruning
// across the whole width of the tree.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

func main() {
	const (
		n   = 60
		v   = 18
		eps = 0.1
	)
	objs, space, err := lineage.Attach(data.Points(n, 3), lineage.Config{
		Scheme: lineage.Positive, NumVars: v, L: 8, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), core.Spec{
		Source: lang.KMedoidsSource, Objects: objs, Space: space,
		Params: []int{2, 3}, InitIndices: []int{0, 1}, Targets: []string{"Centre["},
	})
	if err != nil {
		log.Fatal(err)
	}
	net := art.Net
	fmt.Printf("%d objects, %d variables, %d-node network, %d targets, ε = %g\n\n",
		n, v, net.NumNodes(), len(net.Targets), eps)

	exact, err := prob.Compile(net, prob.Options{Strategy: prob.Exact, Timeout: 2 * time.Minute})
	if err != nil {
		log.Fatal(err)
	}

	type runRow struct {
		name string
		opts prob.Options
	}
	rows := []runRow{
		{"exact", prob.Options{Strategy: prob.Exact}},
		{"eager", prob.Options{Strategy: prob.Eager, Epsilon: eps}},
		{"lazy", prob.Options{Strategy: prob.Lazy, Epsilon: eps}},
		{"hybrid", prob.Options{Strategy: prob.Hybrid, Epsilon: eps}},
		{"hybrid-d (16 virtual workers)", prob.Options{
			Strategy: prob.Hybrid, Epsilon: eps,
			Workers: 16, JobDepth: 3, SimulateWorkers: true,
		}},
	}
	fmt.Printf("%-30s %12s %10s %10s %s\n", "strategy", "time", "branches", "max gap", "max |err|")
	for _, row := range rows {
		res, err := prob.Compile(net, row.opts)
		if err != nil {
			log.Fatal(err)
		}
		maxErr := 0.0
		for i, tb := range res.Targets {
			if e := abs(tb.Estimate() - exact.Targets[i].Estimate()); e > maxErr {
				maxErr = e
			}
		}
		t := res.Stats.Duration
		if row.opts.SimulateWorkers {
			t = res.Stats.SimulatedMakespan
		}
		fmt.Printf("%-30s %12v %10d %10.4f %.4f\n",
			row.name, t.Round(time.Millisecond), res.Stats.Branches, res.MaxGap(), maxErr)
	}
	fmt.Println("\nevery strategy stays within ε of the exact probabilities.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
