// Pctable: loadData() from a probabilistic database (§2 "Input data").
//
// ENFrame can pull its input objects from a positive relational algebra
// query with aggregates over pc-tables (the paper uses the SPROUT engine;
// internal/pctable is this repository's substrate). Two uncertain tables —
// sensors (which may be offline) and their hourly readings (which may be
// spurious) — are joined and filtered; the query result's tuples, each
// carrying its lineage event, become the uncertain objects of a k-medoids
// clustering, correlations included.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/pctable"
	"enframe/internal/prob"
	"enframe/internal/worlds"
)

func main() {
	space := event.NewSpace()
	v := func(name string, p float64) event.Expr {
		return event.NewVar(space.Add(name, p), name)
	}
	up2 := v("sensor2_up", 0.7) // sensor 2 may be offline

	sensors := pctable.NewRelation("sensors", "sid", "station")
	sensors.Insert(nil, pctable.Num(1), pctable.Str("north"))
	sensors.Insert(up2, pctable.Num(2), pctable.Str("south"))

	readings := pctable.NewRelation("readings", "sid", "hour", "load", "pd")
	for h, row := range [][4]float64{
		{1, 0, 24, 2}, {1, 1, 28, 3}, {1, 2, 71, 5}, {1, 3, 69, 4},
		{2, 0, 26, 44}, {2, 1, 31, 48}, {2, 2, 74, 70}, {2, 3, 78, 66},
	} {
		readings.Insert(
			v(fmt.Sprintf("r%d", h), 0.6+0.05*float64(h%4)),
			pctable.Num(row[0]), pctable.Num(row[1]), pctable.Num(row[2]), pctable.Num(row[3]),
		)
	}

	// Query: readings of online sensors, discharge-relevant hours only.
	q := sensors.Join(readings).Select(func(get func(string) pctable.Value) bool {
		return get("hour").F <= 3
	})
	fmt.Printf("query result: %d tuples\n", len(q.Tuples))
	probs, err := q.TupleProb(space)
	if err != nil {
		log.Fatal(err)
	}
	for i, t := range q.Tuples {
		fmt.Printf("  %v  Φ = %-28v Pr = %.3f\n", t.Values, t.Lineage, probs[i])
	}

	// Aggregate c-value: the number of south-station tuples per world,
	// built into an event network and evaluated in each world.
	south := q.Select(func(get func(string) pctable.Value) bool {
		return get("station").Equal(pctable.Str("south"))
	})
	b := network.NewBuilder(space, nil)
	count := south.AggCount(b)
	net := b.Build() // no targets: node ids are kept
	dist := worlds.Distribution{}
	var mean float64 // E[COUNT], counting u as 0
	worlds.Enumerate(space, func(nu event.SliceValuation, p float64) bool {
		v := net.Eval(nu).Nums[count]
		dist.Add(v.String(), p)
		if !v.IsUndef() {
			mean += p * v.S
		}
		return true
	})
	fmt.Println("\ndistribution of COUNT(*) over the south station:")
	vals := make([]string, 0, len(dist))
	for v := range dist {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		fmt.Printf("  %s tuples with probability %.3f\n", v, dist[v])
	}
	// By linearity of expectation, E[COUNT] is the sum of the south tuples'
	// marginals.
	southProbs, err := south.TupleProb(space)
	if err != nil {
		log.Fatal(err)
	}
	var want float64
	for _, p := range southProbs {
		want += p
	}
	if m := dist.TotalMass(); math.Abs(m-1) > 1e-12 {
		log.Fatalf("COUNT distribution has total mass %.17g, want 1", m)
	}
	if math.Abs(mean-want) > 1e-12 {
		log.Fatalf("E[COUNT] = %.17g, but the south tuples' marginals sum to %.17g", mean, want)
	}

	// The query result becomes ENFrame's input data: cluster (load, pd)
	// with Figure 1's program.
	rep, err := core.Run(core.Spec{
		Source: lang.KMedoidsSource, Objects: q.Objects("load", "pd"), Space: space,
		Params: []int{2, 3}, InitIndices: []int{0, 1}, Targets: []string{"Centre["},
		Compile: prob.Options{Strategy: prob.Exact},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmedoid probabilities over the query result (exact):")
	for _, tb := range rep.Result.Targets {
		if tb.Estimate() > 0.05 {
			fmt.Printf("  %s = %.4f\n", tb.Name, tb.Estimate())
		}
	}
}
