// Markov: the MCL user program of Figure 3 on a small graph.
//
// A 6-node graph with two natural communities {0,1,2} and {3,4,5} is
// clustered by Markov Clustering: alternating expansion (matrix squaring)
// and inflation (Hadamard power + rescaling) concentrates the stochastic
// flow inside communities. The program runs through the full ENFrame
// pipeline — parsed, translated to an event program, and evaluated — and
// the same program is also interpreted deterministically; both agree.
//
// A second, probabilistic run makes the single bridge edge (2–3) uncertain
// and reports the distribution of the flow between the communities, checked
// in every world against a plain matrix product.
package main

import (
	"fmt"
	"log"
	"sort"

	"enframe/internal/cluster"
	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

func adjacency(bridge float64) [][]float64 {
	// Two triangles joined by one bridge edge 2–3 of the given weight;
	// self-loops keep the matrix stochastic-friendly.
	n := 6
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	edges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}}
	for _, e := range edges {
		m[e[0]][e[1]] = 1
		m[e[1]][e[0]] = 1
	}
	m[2][3], m[3][2] = bridge, bridge
	return m
}

func main() {
	prog := lang.MustParse(lang.MCLSource)
	points := make([]vec.Vec, 6)
	for i := range points {
		points[i] = vec.New(float64(i))
	}
	objs := lineage.Certain(points)

	// Deterministic run through the interpreter.
	w, err := interp.Run(prog, interp.External{
		Objects: objs,
		Matrix:  adjacency(1),
		Params:  []int{2, 4}, // Hadamard power r = 2, 4 iterations
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deterministic MCL flow matrix (4 iterations, r = 2):")
	mv, _ := w.Var("M")
	flows := make([][]event.Value, 6)
	for i := 0; i < 6; i++ {
		flows[i] = make([]event.Value, 6)
		for j := 0; j < 6; j++ {
			flows[i][j] = mv.Arr[i].Arr[j].V
		}
	}
	printMatrix(flows)

	// Cross-check against the direct MCL implementation.
	direct := cluster.MCL(cluster.MCLFromWeights(adjacency(1)), 2, 4)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if !direct.M[i][j].AlmostEqual(flows[i][j], 1e-9) {
				log.Fatalf("interpreter and direct MCL disagree at (%d,%d)", i, j)
			}
		}
	}
	fmt.Println("\ncommunities (flow > 0.05):")
	for i := 0; i < 6; i++ {
		var members []int
		for j := 0; j < 6; j++ {
			if f := flows[i][j]; f.Kind == event.Scalar && f.S > 0.05 {
				members = append(members, j)
			}
		}
		if len(members) > 1 {
			fmt.Printf("  attractor %d: %v\n", i, members)
		}
	}

	// Probabilistic variant: the bridge edge exists with probability 0.5.
	// The flow between the communities becomes a random variable: its
	// c-value is built into an event network and evaluated in each world.
	space := event.NewSpace()
	bridge := space.Add("bridge", 0.5)
	b := network.NewBuilder(space, nil)
	xe := b.Var(bridge)
	weights := adjacency(1)
	n := 6
	mat := make([][]network.NodeID, n)
	for i := range mat {
		mat[i] = make([]network.NodeID, n)
		for j := range mat[i] {
			w := b.ConstNum(event.Num(weights[i][j]))
			if (i == 2 && j == 3) || (i == 3 && j == 2) {
				// Missing edge means weight 0, not an absent value.
				w = b.Sum(b.CondVal(xe, event.Num(1)), b.CondVal(b.Not(xe), event.Num(0)))
			}
			mat[i][j] = w
		}
	}
	// One expansion step on events: N[2][3] = Σ_k M[2][k]·M[k][3].
	terms := make([]network.NodeID, n)
	for k := 0; k < n; k++ {
		terms[k] = b.Prod(mat[2][k], mat[k][3])
	}
	n23 := b.Sum(terms...)
	net := b.Build() // no targets: node ids are kept
	dist := worlds.Distribution{}
	worlds.Enumerate(space, func(nu event.SliceValuation, p float64) bool {
		got := net.Eval(nu).Nums[n23]
		// The same entry of the plain matrix product in this world.
		m := adjacency(0)
		if nu[bridge] {
			m = adjacency(1)
		}
		want := 0.0
		for k := 0; k < n; k++ {
			want += m[2][k] * m[k][3]
		}
		if !got.Equal(event.Num(want)) {
			log.Fatalf("world %v: N[2][3] = %v on events, %g by matrix product", nu, got, want)
		}
		dist.Add(got.String(), p)
		return true
	})
	fmt.Println("\ndistribution of the expanded cross-community flow N[2][3]:")
	vals := make([]string, 0, len(dist))
	for v := range dist {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		fmt.Printf("  %s with probability %.2f\n", v, dist[v])
	}
}

func printMatrix(m [][]event.Value) {
	for _, row := range m {
		fmt.Print("  ")
		for _, v := range row {
			if v.Kind == event.Scalar {
				fmt.Printf("%5.2f ", v.S)
			} else {
				fmt.Printf("%5s ", v)
			}
		}
		fmt.Println()
	}
}
