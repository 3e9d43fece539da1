// Package circuit is ENFrame's knowledge-compilation backend: it records the
// exact Shannon-expansion compiler's decision tree (paper §4, Algorithm 1) as
// a smooth deterministic arithmetic circuit that can recompute every target's
// marginal for a fresh probability assignment without recompiling the event
// network — the compile-once/evaluate-many shape of production probabilistic
// systems (ProbLog's OBDD/d-DNNF pipeline).
//
// The circuit is a DAG of decision nodes in structure-of-arrays layout. A
// node carries the variable it branches on (or none, for a leaf), its
// true/false children, and the list of target decisions the compiler fired on
// entering the node — target ti was masked true (its mass joins the lower
// bound) or false (its mass leaves the upper bound). Hash-consing merges
// isomorphic subcircuits at build time, so repeated decision-tree fragments
// are stored once.
//
// Evaluation is a top-down mass replay: starting from the root with mass 1,
// each decision node splits its mass into p·P(v) and p·(1−P(v)) and every
// event fires lower[t] += p or upper[t] −= p, expanding the consed DAG back
// into the traced tree. This reproduces the compiler's floating-point
// operations in the compiler's order, so at the traced probability
// assignment the evaluated bounds are bit-identical to exact compilation —
// the contract internal/difftest enforces over generated programs. The
// hash-consing is therefore storage compression only: no BDD-style node
// elimination is applied, because collapsing Decision(v, a, a) into a would
// reorder the additions and break bit-identity.
package circuit

import (
	"fmt"

	"enframe/internal/event"
)

// NodeID indexes a circuit node; None marks an absent child.
type NodeID int32

// None is the null node: a subtree the compiler never explored (zero branch
// mass, abort, or a bounds-converged cut). Replay skips it.
const None NodeID = -1

// Decision packs one target decision fired on entering a node: the target
// index shifted left once, with the low bit set when the target decided true.
type Decision uint32

// NewDecision packs a target decision.
func NewDecision(target int, isTrue bool) Decision {
	d := Decision(target) << 1
	if isTrue {
		d |= 1
	}
	return d
}

// Target returns the decided target's index.
func (d Decision) Target() int { return int(d >> 1) }

// True reports whether the target decided true (mass joins the lower bound)
// rather than false (mass leaves the upper bound).
func (d Decision) True() bool { return d&1 != 0 }

// Circuit is an immutable compiled decision circuit. Build one with a
// Builder; evaluate with Eval or EvalInto at one probability assignment, or
// with EvalSweep at many that differ in one variable. Safe for concurrent
// evaluation.
type Circuit struct {
	// Structure-of-arrays node storage: branch variable (< 0 for a leaf),
	// true/false children, and a CSR event list per node (evOff[i] ..
	// evOff[i+1] into evs, in the compiler's firing order).
	vars   []int32
	hi, lo []NodeID
	evOff  []int32
	evs    []Decision
	// visits[i] is the number of node visits a replay of i's subtree
	// performs — the subtree's size as a tree, before hash-cons sharing.
	visits []int64

	root NodeID
	// depth is the number of nodes on the longest root-to-leaf path: the
	// mass levels a sweep keeps live at once.
	depth    int
	targets  []string
	numVars  int
	complete bool
	merged   int64
}

// Nodes returns the number of stored (hash-consed) nodes.
func (c *Circuit) Nodes() int { return len(c.vars) }

// Events returns the number of stored target decisions.
func (c *Circuit) Events() int { return len(c.evs) }

// Bytes estimates the memory the circuit's node and event arrays hold.
func (c *Circuit) Bytes() int64 {
	// Per node: vars, hi, lo, evOff (4 bytes each) and visits (8).
	return int64(len(c.vars))*24 + int64(len(c.evs))*4
}

// Merged counts hash-cons hits during construction: tree nodes that were
// shared with an existing isomorphic subcircuit instead of stored again.
func (c *Circuit) Merged() int64 { return c.merged }

// TreeBranches is the number of node visits one replay performs — the size
// of the traced decision tree, which hash-consing compresses to Nodes().
func (c *Circuit) TreeBranches() int64 {
	if c.root == None {
		return 0
	}
	return c.visits[c.root]
}

// NumVars is the length of the probability vector Eval expects (the
// variable space size of the traced network).
func (c *Circuit) NumVars() int { return c.numVars }

// Targets returns the compilation targets in bound-index order. The slice
// is shared with the circuit; callers must not modify it.
func (c *Circuit) Targets() []string { return c.targets }

// Complete reports whether the trace covered the whole decision tree. The
// exact compiler legitimately skips subtrees whose branch mass is zero or
// whose targets' bounds already converged; a circuit containing such cuts
// still replays bit-identically at the traced probability assignment (the
// skipped mass is zero there), but would be wrong at other assignments, so
// incomplete circuits must not serve what-if or sensitivity queries.
func (c *Circuit) Complete() bool { return c.complete }

// Eval computes every target's [lower, upper] probability bounds under the
// given per-variable marginals (indexed by event.VarID). The bounds are the
// raw replayed sums; callers wanting the compiler's exact output clamp them
// to [0, 1] the same way prob.CompileCtx does.
func (c *Circuit) Eval(probs []float64) (lo, hi []float64, err error) {
	lo = make([]float64, len(c.targets))
	hi = make([]float64, len(c.targets))
	if err := c.EvalInto(probs, lo, hi); err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// EvalInto is Eval writing into caller-provided slices, so repeated
// evaluations (sensitivity pins one variable at a time) run allocation-free.
func (c *Circuit) EvalInto(probs, lo, hi []float64) error {
	if err := c.checkProbs(probs); err != nil {
		return err
	}
	if len(lo) != len(c.targets) || len(hi) != len(c.targets) {
		return fmt.Errorf("circuit: bound slices sized %d/%d for %d targets", len(lo), len(hi), len(c.targets))
	}
	for i := range lo {
		lo[i] = 0
		hi[i] = 1
	}
	if c.root != None {
		c.replay(c.root, 1, probs, lo, hi)
	}
	return nil
}

// checkProbs validates a probability vector over the circuit's variables.
func (c *Circuit) checkProbs(probs []float64) error {
	if len(probs) != c.numVars {
		return fmt.Errorf("circuit: %d probabilities for %d variables", len(probs), c.numVars)
	}
	for i, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("circuit: probability %g for variable %d outside [0, 1]", p, i)
		}
	}
	return nil
}

// replay expands the consed DAG back into the traced tree, firing each
// node's decisions with its branch mass. The multiplication and addition
// sequence matches the compiler's walker exactly: pT = p·P(v) before the
// true child, pF = p·(1−P(v)) before the false child, adds in DFS order.
// Zero-mass children are skipped — at the traced assignment such children
// were never recorded, so the skip can only fire at other assignments,
// where a zero mass contributes nothing.
func (c *Circuit) replay(id NodeID, p float64, probs, lo, hi []float64) {
	for _, d := range c.evs[c.evOff[id]:c.evOff[id+1]] {
		if d&1 != 0 {
			lo[d>>1] += p
		} else {
			hi[d>>1] -= p
		}
	}
	v := c.vars[id]
	if v < 0 {
		return
	}
	pv := probs[v]
	if h := c.hi[id]; h != None {
		if pT := p * pv; pT != 0 {
			c.replay(h, pT, probs, lo, hi)
		}
	}
	if l := c.lo[id]; l != None {
		if pF := p * (1 - pv); pF != 0 {
			c.replay(l, pF, probs, lo, hi)
		}
	}
}

// SweepScratch is the length of the scratch slice EvalSweep needs for a
// sweep of the given number of lanes.
func (c *Circuit) SweepScratch(lanes int) int { return c.depth * lanes }

// EvalSweep evaluates the circuit at len(grid) probability assignments in
// one walk: lane j is probs with probs[v] replaced by grid[j]. lo and hi are
// target-major lane matrices of len(Targets())·len(grid) entries — target
// t's raw bounds at lane j land in lo[t·len(grid)+j] and hi[t·len(grid)+j] —
// and scratch holds at least SweepScratch(len(grid)) entries. probs[v]
// itself is validated but not read.
//
// Lane j performs exactly the floating-point operations EvalInto performs
// at its assignment, so every lane is bit-identical to a scalar
// evaluation. The scalar replay skips a child whose mass is zero; the
// sweep skips a child only when every lane's mass is zero, and otherwise
// carries the dead lanes along at mass +0 (masses are products of
// probabilities, never −0). A dead lane therefore adds +0 to lower bounds,
// which start at +0 and only gain non-negative masses, and subtracts +0
// from upper bounds; both leave the accumulator's bits unchanged.
func (c *Circuit) EvalSweep(probs []float64, v event.VarID, grid, lo, hi, scratch []float64) error {
	if err := c.checkProbs(probs); err != nil {
		return err
	}
	if v < 0 || int(v) >= c.numVars {
		return fmt.Errorf("circuit: swept variable %d outside the %d-variable space", v, c.numVars)
	}
	for _, p := range grid {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("circuit: grid probability %g outside [0, 1]", p)
		}
	}
	lanes := len(grid)
	if n := len(c.targets) * lanes; len(lo) != n || len(hi) != n {
		return fmt.Errorf("circuit: lane matrices sized %d/%d for %d targets × %d lanes", len(lo), len(hi), len(c.targets), lanes)
	}
	if len(scratch) < c.SweepScratch(lanes) {
		return fmt.Errorf("circuit: sweep scratch of %d for %d needed", len(scratch), c.SweepScratch(lanes))
	}
	for i := range lo {
		lo[i] = 0
		hi[i] = 1
	}
	if c.root != None && lanes > 0 {
		mass := scratch[:lanes]
		for j := range mass {
			mass[j] = 1
		}
		s := sweep{c: c, probs: probs, v: int32(v), grid: grid, lo: lo, hi: hi}
		s.replay(c.root, mass, scratch[lanes:])
	}
	return nil
}

// sweep is the state of one EvalSweep walk.
type sweep struct {
	c      *Circuit
	probs  []float64
	v      int32
	grid   []float64
	lo, hi []float64
}

// replay is Circuit.replay with a mass per lane: mass is this node's lane
// masses, and free the scratch below it, whose first len(mass) entries
// take each child's masses in turn.
func (s *sweep) replay(id NodeID, mass, free []float64) {
	c, n := s.c, len(mass)
	for _, d := range c.evs[c.evOff[id]:c.evOff[id+1]] {
		t := int(d>>1) * n
		if d&1 != 0 {
			row := s.lo[t : t+n]
			for j, p := range mass {
				row[j] += p
			}
		} else {
			row := s.hi[t : t+n]
			for j, p := range mass {
				row[j] -= p
			}
		}
	}
	w := c.vars[id]
	if w < 0 {
		return
	}
	child, rest := free[:n], free[n:]
	if h := c.hi[id]; h != None && s.split(child, mass, w, true) {
		s.replay(h, child, rest)
	}
	if l := c.lo[id]; l != None && s.split(child, mass, w, false) {
		s.replay(l, child, rest)
	}
}

// split writes the lane masses of node variable w's true (or false) child
// — p·P(w) or p·(1−P(w)) per lane, as the scalar replay computes them — and
// reports whether any lane's mass is nonzero.
func (s *sweep) split(child, mass []float64, w int32, isTrue bool) bool {
	live := false
	child = child[:len(mass)]
	if w == s.v {
		grid := s.grid[:len(mass)]
		for j, p := range mass {
			pv := grid[j]
			if !isTrue {
				pv = 1 - pv
			}
			child[j] = p * pv
			live = live || child[j] != 0
		}
		return live
	}
	pv := s.probs[w]
	if !isTrue {
		pv = 1 - pv
	}
	for j, p := range mass {
		child[j] = p * pv
		live = live || child[j] != 0
	}
	return live
}

// Var returns the branch variable of a node, or -1 for a leaf. Exposed for
// tests and diagnostics.
func (c *Circuit) Var(id NodeID) event.VarID { return event.VarID(c.vars[id]) }
