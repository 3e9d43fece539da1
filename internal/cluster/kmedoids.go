// Package cluster implements the three clustering algorithms of the paper
// (§2.1) — k-medoids, k-means, and Markov clustering — as deterministic,
// per-world procedures that follow the user programs of Figures 1–3 exactly,
// including the undefined-value semantics of §3.2: an absent object is u,
// distances to u are u, comparisons involving u hold, empty reductions are
// u, and ties break towards the first index. Naive, the paper's naïve
// possible-worlds baseline, runs KMedoids in every world.
package cluster

import (
	"enframe/internal/event"
	"enframe/internal/vec"
)

// KMedoidsResult holds the final state of one k-medoids run: cluster
// membership and medoid selection per (cluster, object), indexed by the
// original object ids.
type KMedoidsResult struct {
	// InCl[i][l] reports that object l is assigned to cluster i.
	InCl [][]bool
	// Centre[i][l] reports that object l is the medoid of cluster i.
	Centre [][]bool
}

// KMedoids runs the user program of Figure 1 with initial medoids init
// (object indices). An object not marked present is the undefined value u,
// as O_l ≡ Φ(o_l) ⊗ o_l evaluates to u in a world where Φ(o_l) is false:
// every comparison it takes part in holds, so it joins the first cluster and
// competes for every medoid. A nil present slice means all objects exist.
func KMedoids(points []vec.Vec, present []bool, k, iter int, init []int, metric vec.Distance) KMedoidsResult {
	if metric == nil {
		metric = vec.Euclidean
	}
	n := len(points)
	obj := make([]event.Value, n)
	for l, p := range points {
		obj[l] = event.U
		if present == nil || present[l] {
			obj[l] = event.Vect(p)
		}
	}

	// Medoids as extended values: a position or u.
	medoids := make([]event.Value, k)
	for i := 0; i < k; i++ {
		medoids[i] = obj[init[i]]
	}

	inCl := newBoolMatrix(k, n)
	centre := newBoolMatrix(k, n)
	distSum := make([][]event.Value, k)
	for i := range distSum {
		distSum[i] = make([]event.Value, n)
	}

	for it := 0; it < iter; it++ {
		// Assignment phase: InCl[i][l] = ⋀_j [dist(O_l, M_i) ≤ dist(O_l, M_j)].
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				di := event.DistVal(metric, obj[l], medoids[i])
				in := true
				for j := 0; j < k; j++ {
					if !event.Compare(event.LE, di, event.DistVal(metric, obj[l], medoids[j])) {
						in = false
						break
					}
				}
				inCl[i][l] = in
			}
		}
		breakTies2(inCl)

		// Update phase: DistSum[i][l] = Σ_{p: InCl[i][p]} dist(O_l, O_p).
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				sum := event.U
				for p := 0; p < n; p++ {
					if inCl[i][p] {
						sum = event.Add(sum, event.DistVal(metric, obj[l], obj[p]))
					}
				}
				distSum[i][l] = sum
			}
		}
		// Centre[i][l] = ⋀_p [DistSum[i][l] ≤ DistSum[i][p]].
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				c := true
				for p := 0; p < n; p++ {
					if !event.Compare(event.LE, distSum[i][l], distSum[i][p]) {
						c = false
						break
					}
				}
				centre[i][l] = c
			}
		}
		breakTies1(centre)

		// Elect new medoids: M[i] = Σ_{l: Centre[i][l]} O_l (exactly one
		// term after tie-breaking, or u for an empty selection).
		for i := 0; i < k; i++ {
			m := event.U
			for l := 0; l < n; l++ {
				if centre[i][l] {
					m = event.Add(m, obj[l])
				}
			}
			medoids[i] = m
		}
	}
	return KMedoidsResult{InCl: inCl, Centre: centre}
}

// breakTies2 keeps, for each fixed object l, only the first cluster i with
// M[i][l] true (§2.2).
func breakTies2(m [][]bool) {
	if len(m) == 0 {
		return
	}
	for l := 0; l < len(m[0]); l++ {
		seen := false
		for i := 0; i < len(m); i++ {
			if m[i][l] {
				if seen {
					m[i][l] = false
				}
				seen = true
			}
		}
	}
}

// breakTies1 keeps, for each fixed cluster i, only the first object l with
// M[i][l] true (§2.2).
func breakTies1(m [][]bool) {
	for i := range m {
		seen := false
		for l := range m[i] {
			if m[i][l] {
				if seen {
					m[i][l] = false
				}
				seen = true
			}
		}
	}
}

func newBoolMatrix(k, n int) [][]bool {
	m := make([][]bool, k)
	for i := range m {
		m[i] = make([]bool, n)
	}
	return m
}
