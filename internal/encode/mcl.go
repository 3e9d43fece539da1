// Package encode builds Markov clustering (Figure 3) over an uncertain graph
// directly as an event network, for graphs whose edges carry their own
// lineage — an input the user-program front end does not take (its MCL
// program reads a certain weight matrix). Every clustering program the
// service answers, k-medoids included, is translated from its source text
// instead (internal/translate); golden builtin:mcl pins this encoder's bits.
package encode

import (
	"fmt"
	"math"

	"enframe/internal/event"
	"enframe/internal/network"
)

// MCLSpec describes Markov clustering (Figure 3) over an uncertain graph:
// edge (i, j) carries weight Weights[i][j] when its lineage event holds and
// weight 0 otherwise. The encoded network follows the event program of
// Figure 3 — expansion is Σ_k M[i][k]·M[k][j], inflation is the Hadamard
// power with a row-normalising inversion — and the compilation targets are
// co-clustering events [M[i][k] > θ] ∧ [M[j][k] > θ] for the configured
// node pairs.
type MCLSpec struct {
	Weights [][]float64
	// EdgeLineage[i][j] conditions edge (i, j); nil entries (or a nil
	// matrix) mean the edge is certain.
	EdgeLineage [][]event.Expr
	Space       *event.Space
	// R is the Hadamard (inflation) power; Iter the number of
	// expansion/inflation rounds.
	R, Iter int
	// Threshold is θ of the co-clustering events.
	Threshold float64
	// Pairs are the queried node pairs.
	Pairs [][2]int
}

// TargetNames lists the co-clustering targets in network order.
func (sp *MCLSpec) TargetNames() []string {
	var names []string
	for _, p := range sp.Pairs {
		names = append(names, fmt.Sprintf("CoCluster[%d][%d]", p[0], p[1]))
	}
	return names
}

// Network compiles the spec.
func (sp *MCLSpec) Network() (*network.Net, error) {
	n := len(sp.Weights)
	if n == 0 {
		return nil, fmt.Errorf("encode: empty weight matrix")
	}
	if sp.R <= 0 || sp.R > math.MaxInt32 || sp.Iter <= 0 {
		return nil, fmt.Errorf("encode: r = %d must be in [1, %d] and iter = %d positive", sp.R, math.MaxInt32, sp.Iter)
	}
	if len(sp.Pairs) == 0 {
		return nil, fmt.Errorf("encode: no co-clustering pairs requested")
	}
	b := network.NewBuilder(sp.Space, nil)

	// M[i][j]: weight if the edge exists, 0 otherwise (a missing edge is
	// weight 0, not an undefined value — the matrix stays defined).
	m := make([][]network.NodeID, n)
	for i := range m {
		m[i] = make([]network.NodeID, n)
		for j := range m[i] {
			w := sp.Weights[i][j]
			var lin event.Expr
			if sp.EdgeLineage != nil && sp.EdgeLineage[i] != nil {
				lin = sp.EdgeLineage[i][j]
			}
			if lin == nil {
				m[i][j] = b.ConstNum(event.Num(w))
				continue
			}
			g := b.AddExpr(lin)
			m[i][j] = b.Sum(
				b.CondVal(g, event.Num(w)),
				b.CondVal(b.Not(g), event.Num(0)),
			)
		}
	}

	next := make([][]network.NodeID, n)
	for i := range next {
		next[i] = make([]network.NodeID, n)
	}
	for it := 0; it < sp.Iter; it++ {
		// Expansion: N[i][j] = Σ_k M[i][k] · M[k][j].
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				terms := make([]network.NodeID, n)
				for k := 0; k < n; k++ {
					terms[k] = b.Prod(m[i][k], m[k][j])
				}
				next[i][j] = b.Sum(terms...)
			}
		}
		// Inflation: M[i][j] = N[i][j]^r · (Σ_k N[i][k]^r)⁻¹.
		for i := 0; i < n; i++ {
			pows := make([]network.NodeID, n)
			for k := 0; k < n; k++ {
				pows[k] = b.Pow(next[i][k], sp.R)
			}
			inv := b.Inv(b.Sum(pows...))
			for j := 0; j < n; j++ {
				m[i][j] = b.Prod(b.Pow(next[i][j], sp.R), inv)
			}
		}
	}

	theta := b.ConstNum(event.Num(sp.Threshold))
	for _, p := range sp.Pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("encode: pair %v out of range", p)
		}
		attract := make([]network.NodeID, n)
		for k := 0; k < n; k++ {
			attract[k] = b.And(
				b.Cmp(event.GT, m[p[0]][k], theta),
				b.Cmp(event.GT, m[p[1]][k], theta),
			)
		}
		b.Target(fmt.Sprintf("CoCluster[%d][%d]", p[0], p[1]), b.Or(attract...))
	}
	return b.Build(), nil
}
