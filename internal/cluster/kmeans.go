package cluster

import (
	"enframe/internal/event"
	"enframe/internal/vec"
)

// KMeansResult holds the final state of one k-means run.
type KMeansResult struct {
	// InCl[i][l] reports that object l is assigned to cluster i.
	InCl [][]bool
	// Centroids[i] is the final centroid of cluster i (u for a cluster
	// that ended up empty).
	Centroids []event.Value
}

// KMeans runs the user program of Figure 2 on objects that all exist.
// Initial centroids are the positions of the init objects. It is the
// direct-implementation oracle of the interpreted kmeans program in
// TestKMeansProgramMatchesDirectImplementation.
func KMeans(points []vec.Vec, k, iter int, init []int, metric vec.Distance) KMeansResult {
	if metric == nil {
		metric = vec.Euclidean
	}
	n := len(points)

	centroids := make([]event.Value, k)
	for i := 0; i < k; i++ {
		centroids[i] = event.Vect(points[init[i]])
	}

	inCl := newBoolMatrix(k, n)
	for it := 0; it < iter; it++ {
		// Assignment phase.
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				ol := event.Vect(points[l])
				di := event.DistVal(metric, ol, centroids[i])
				in := true
				for j := 0; j < k; j++ {
					dj := event.DistVal(metric, ol, centroids[j])
					if !event.Compare(event.LE, di, dj) {
						in = false
						break
					}
				}
				inCl[i][l] = in
			}
		}
		breakTies2(inCl)

		// Update phase: M[i] = (Σ InCl[i][l] ⊗ 1)⁻¹ · Σ InCl[i][l] ∧ O_l.
		for i := 0; i < k; i++ {
			count := event.U
			sum := event.U
			for l := 0; l < n; l++ {
				if inCl[i][l] {
					count = event.Add(count, event.Num(1))
					sum = event.Add(sum, event.Vect(points[l]))
				}
			}
			centroids[i] = event.Mul(event.Inv(count), sum)
		}
	}
	return KMeansResult{InCl: inCl, Centroids: centroids}
}
