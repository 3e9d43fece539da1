package cluster

import (
	"enframe/internal/event"
)

// MCLResult is the final stochastic matrix of a Markov clustering run.
type MCLResult struct {
	// M[i][j] is the flow from node j towards attractor i (u when the
	// column normalisation was undefined).
	M [][]event.Value
}

// MCL runs the user program of Figure 3: iter alternations of expansion
// (matrix squaring) and inflation (Hadamard power r followed by column
// rescaling). Entries are extended values so that undefined input entries
// propagate per §3.2 (in particular a zero normalisation sum inverts to u).
func MCL(m [][]event.Value, r, iter int) MCLResult {
	n := len(m)
	cur := make([][]event.Value, n)
	for i := range cur {
		cur[i] = append([]event.Value(nil), m[i]...)
	}
	next := make([][]event.Value, n)
	for i := range next {
		next[i] = make([]event.Value, n)
	}
	for it := 0; it < iter; it++ {
		// Expansion: N[i][j] = Σ_k M[i][k] · M[k][j].
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := event.U
				for k := 0; k < n; k++ {
					sum = event.Add(sum, event.Mul(cur[i][k], cur[k][j]))
				}
				next[i][j] = sum
			}
		}
		// Inflation: M[i][j] = N[i][j]^r · (Σ_k N[i][k]^r)⁻¹.
		//
		// Figure 3 normalises along k of N[i][k]; with the convention that
		// M[i][j] is the flow from j to i this is the column sum of the
		// transposed orientation — we follow the program text literally.
		for i := 0; i < n; i++ {
			norm := event.U
			for k := 0; k < n; k++ {
				norm = event.Add(norm, event.PowVal(next[i][k], r))
			}
			inv := event.Inv(norm)
			for j := 0; j < n; j++ {
				cur[i][j] = event.Mul(event.PowVal(next[i][j], r), inv)
			}
		}
	}
	return MCLResult{M: cur}
}

// MCLFromWeights builds the extended-value matrix of certain edge weights.
func MCLFromWeights(w [][]float64) [][]event.Value {
	m := make([][]event.Value, len(w))
	for i := range w {
		m[i] = make([]event.Value, len(w[i]))
		for j := range w[i] {
			m[i][j] = event.Num(w[i][j])
		}
	}
	return m
}
