package prob

import (
	"context"
	"errors"
	"fmt"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/network"
)

// ErrIncompleteCircuit is returned when a query needs a complete circuit but
// the trace contained lossy cuts (zero-mass branches or bounds-converged
// subtrees); callers fall back to recompilation.
var ErrIncompleteCircuit = errors.New("prob: circuit is incomplete (pruned subtrees); recompilation required")

// CompileCircuit runs one exact sequential compilation while recording the
// decision tree into a hash-consed arithmetic circuit (internal/circuit),
// and returns the circuit together with the Result obtained by replaying it
// at the space's current probabilities. The replay reproduces the exact
// compiler's floating-point operation sequence, so the returned marginals —
// and the work counters of the traced walk — are bit-identical to
// Options{Strategy: Exact}. Epsilon and worker fan-out do not apply: the
// circuit re-creates exact marginals for any probability assignment, which
// subsumes what the approximation strategies would cache.
func CompileCircuit(ctx context.Context, net *network.Net, opts Options) (*circuit.Circuit, *Result, error) {
	return compile(ctx, net, opts, true, nil)
}

// circuitSink is the walker's optional recorder: it builds the circuit
// post-order as walker.dfs returns from each branch. Its methods are safe on
// a nil receiver, which is what every untraced walk carries.
type circuitSink struct {
	b    *circuit.Builder
	root circuit.NodeID
	// events is the scratch stack of target decisions observed since the
	// current node's entry; child frames append and truncate around it.
	events []circuit.Decision
	// incomplete records lossy cuts: a gated branch (zero mass or stop) or
	// a bounds-converged skip while targets were still undecided. Such a
	// circuit replays correctly at the traced probabilities (the cut mass
	// is zero there) but not at other assignments.
	incomplete bool
}

func newCircuitSink(net *network.Net) *circuitSink {
	names := make([]string, len(net.Targets))
	for i, t := range net.Targets {
		names[i] = t.Name
	}
	return &circuitSink{b: circuit.NewBuilder(net.Space.Len(), names), root: circuit.None}
}

// observe is the state's onAdd hook: the branch mass is implied by the node
// the decision fires under, so only (target, truth) is recorded.
func (k *circuitSink) observe(ti int, isTrue bool, _ float64) {
	k.events = append(k.events, circuit.NewDecision(ti, isTrue))
}

// cut marks the circuit lossy.
func (k *circuitSink) cut() {
	if k != nil {
		k.incomplete = true
	}
}

// mark opens a node: decisions observed from here on belong to it. The root
// also adopts the initial mask pass's unit-mass decisions.
func (k *circuitSink) mark(root bool) int {
	if k == nil || root {
		return 0
	}
	return len(k.events)
}

// node closes the node opened at evMark, branching on v into hi and lo.
func (k *circuitSink) node(v event.VarID, hi, lo circuit.NodeID, evMark int) circuit.NodeID {
	if k == nil {
		return circuit.None
	}
	id := k.b.Node(v, hi, lo, k.events[evMark:])
	k.events = k.events[:evMark]
	return id
}

// finish seals the recorded circuit.
func (k *circuitSink) finish() (*circuit.Circuit, error) {
	if k.root == circuit.None {
		// Only reachable when the stop flag fired before the root expansion.
		return nil, fmt.Errorf("prob: circuit trace aborted before the root expansion")
	}
	return k.b.Finish(k.root, !k.incomplete), nil
}

// EvalCircuit replays the circuit at the given per-variable marginals and
// returns per-target bounds clamped exactly as CompileCtx clamps its bounds
// book (clampBound). The returned Result carries no Stats; callers compiling
// fresh attach the trace stats.
func EvalCircuit(c *circuit.Circuit, probs []float64) (*Result, error) {
	lo, hi, err := c.Eval(probs)
	if err != nil {
		return nil, fmt.Errorf("prob: %w", err)
	}
	res := &Result{Targets: make([]TargetBound, len(lo))}
	for i, name := range c.Targets() {
		res.Targets[i] = clampBound(name, lo[i], hi[i])
	}
	return res, nil
}

// EvalSweep replays the circuit once for a whole one-variable sweep
// (circuit.Circuit.EvalSweep: lane j sets probs[v] = grid[j]) and clamps
// every lane's bounds in place as EvalCircuit clamps them, so lo[t·len(grid)+j]
// and hi[t·len(grid)+j] are bit for bit the Lower and Upper EvalCircuit
// reports for target t at lane j's assignment. scratch holds at least
// c.SweepScratch(len(grid)) entries.
func EvalSweep(c *circuit.Circuit, probs []float64, v event.VarID, grid, lo, hi, scratch []float64) error {
	if err := c.EvalSweep(probs, v, grid, lo, hi, scratch); err != nil {
		return fmt.Errorf("prob: %w", err)
	}
	for i := range lo {
		lo[i], hi[i] = clamp(lo[i], hi[i])
	}
	return nil
}

// SpaceProbs snapshots the space's marginals indexed by VarID — the
// probability-vector shape circuit evaluation takes. Mutating the returned
// slice (what-if sweeps, sensitivity pinning) leaves the space untouched.
func SpaceProbs(sp *event.Space) []float64 {
	out := make([]float64, sp.Len())
	for i := range out {
		out[i] = sp.Prob(event.VarID(i))
	}
	return out
}
