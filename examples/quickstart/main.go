// Quickstart: the paper's Example 1, end to end.
//
// Four objects o0..o3 on a line with the lineage of Example 1:
//
//	Φ(o0) = x1 ∨ x3,  Φ(o1) = x2,  Φ(o2) = x3,  Φ(o3) = ¬x2 ∧ x4
//
// We cluster them with probabilistic k-medoids (k = 2) under possible
// worlds semantics — the result is equivalent to running Figure 1's program
// in every possible world separately ("the golden standard"), without
// enumerating the worlds — and ask Example 1's query: "are o1 and o2 in the
// same cluster?". The program is the one /v1/run serves, translated under
// §3.2's rules, where an absent object is the undefined value u.
package main

import (
	"fmt"
	"log"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/vec"
)

func main() {
	// Independent Boolean random variables with their probabilities.
	space := event.NewSpace()
	x1 := event.NewVar(space.Add("x1", 0.7), "x1")
	x2 := event.NewVar(space.Add("x2", 0.6), "x2")
	x3 := event.NewVar(space.Add("x3", 0.5), "x3")
	x4 := event.NewVar(space.Add("x4", 0.8), "x4")

	// Objects on a line, as drawn in Example 1. Lineage events encode
	// arbitrary correlations: o3 exists only when o1 does not (they are
	// contradicting readings and never share a world).
	objs := []lineage.Object{
		{ID: 0, Pos: vec.New(0), Lineage: event.NewOr(x1, x3)},
		{ID: 1, Pos: vec.New(2), Lineage: x2},
		{ID: 2, Pos: vec.New(7), Lineage: x3},
		{ID: 3, Pos: vec.New(9), Lineage: event.NewAnd(event.NewNot(x2), x4)},
	}

	// Example 1's query as a program suffix: CoOcc12 holds when some
	// cluster holds both o1 and o2.
	const k = 2
	rep, err := core.Run(core.Spec{
		Source: lang.KMedoidsSource + `
CoOcc12 = reduce_or([InCl[i][1] for i in range(0,k) if InCl[i][2]])
CoOcc13 = reduce_or([InCl[i][1] for i in range(0,k) if InCl[i][3]])
`,
		Objects:     objs,
		Space:       space,
		Params:      []int{k, 3},
		InitIndices: []int{1, 3}, // initial medoids o1 and o3, as in Example 1
		Targets:     []string{"Centre[", "CoOcc12", "CoOcc13"},
		Compile:     prob.Options{Strategy: prob.Exact},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event network: %d nodes over %d variables\n\n", rep.Net.NumNodes(), space.Len())
	fmt.Println("medoid probabilities (exact):")
	for i := 0; i < k; i++ {
		for l := range objs {
			tb, _ := rep.Result.Target(fmt.Sprintf("Centre[%d][%d]", i, l))
			fmt.Printf("  Pr[o%d is the medoid of cluster %d] = %.4f\n", l, i, tb.Estimate())
		}
	}
	fmt.Println("\nco-occurrence queries (exact):")
	for _, name := range []string{"CoOcc12", "CoOcc13"} {
		tb, _ := rep.Result.Target(name)
		fmt.Printf("  Pr[%s] = %.4f\n", name, tb.Estimate())
	}
	fmt.Println("\nThe initial medoids o1 and o3 never share a world, so one of them is u")
	fmt.Println("in every world, and every comparison with u holds (§3.2). Hence o1, o2")
	fmt.Println("and o3 always share cluster 0, and o0 is the medoid of cluster 1 even in")
	fmt.Println("the worlds where o0 is absent. Telling absent objects apart needs an")
	fmt.Println("existence test in the language.")
}
