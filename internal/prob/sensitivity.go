package prob

import (
	"context"
	"fmt"
	"sort"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/network"
)

// VarInfluence reports how one input random variable influences a target
// event: the target's probability conditioned on the variable being true
// and false, and the derivative of the target probability with respect to
// the variable's marginal. Since the variables are independent,
// Pr[Φ] = Px·Pr[Φ | x] + (1−Px)·Pr[Φ | ¬x], so the derivative is the
// difference of the conditionals.
type VarInfluence struct {
	Var        event.VarID
	Name       string
	CondTrue   float64 // Pr[target | x]
	CondFalse  float64 // Pr[target | ¬x]
	Derivative float64 // ∂Pr[target]/∂Px = CondTrue − CondFalse
}

// Sensitivity performs the sensitivity analysis the event representation
// enables (§1): for every variable occurring in the network it computes the
// named target's conditional probabilities and derivative, sorted by
// decreasing |derivative|. It compiles the network twice per variable with
// the variable's marginal pinned to 1 and 0; the space's probabilities are
// restored before returning. Not safe for concurrent use of the same
// variable space.
func Sensitivity(net *network.Net, opts Options, targetName string) ([]VarInfluence, error) {
	ti := -1
	for i, t := range net.Targets {
		if t.Name == targetName {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("prob: no target named %q", targetName)
	}
	if opts.Strategy == Circuit {
		// Compile once, then answer every conditional by replaying the
		// circuit with the variable's marginal pinned — two evaluations per
		// variable instead of two compilations. A pruned (incomplete) trace
		// cannot replay at pinned probabilities; fall back to recompiling.
		c, _, err := CompileCircuit(context.Background(), net, opts)
		if err != nil {
			return nil, err
		}
		if c.Complete() {
			return SensitivityCircuit(c, net, targetName)
		}
		opts.Strategy = Exact
	}
	return influences(net, func(x event.VarID, p float64) (float64, error) {
		orig := net.Space.Prob(x)
		net.Space.SetProb(x, p)
		res, err := Compile(net, opts)
		net.Space.SetProb(x, orig)
		if err != nil {
			return 0, err
		}
		return res.Targets[ti].Estimate(), nil
	})
}

// SensitivityCircuit is Sensitivity answered from an already-compiled
// complete circuit: each conditional probability is one replay evaluation
// with the variable's marginal pinned to 1 or 0, so the whole analysis
// costs 2·|vars| evaluations and zero recompilations. The net must be the
// network the circuit was traced from; its space is only read, never
// mutated, making this safe to run concurrently over a shared artifact.
func SensitivityCircuit(c *circuit.Circuit, net *network.Net, targetName string) ([]VarInfluence, error) {
	ti := -1
	for i, name := range c.Targets() {
		if name == targetName {
			ti = i
			break
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("prob: no target named %q", targetName)
	}
	if !c.Complete() {
		return nil, ErrIncompleteCircuit
	}
	probs := SpaceProbs(net.Space)
	lo := make([]float64, len(c.Targets()))
	hi := make([]float64, len(c.Targets()))
	return influences(net, func(x event.VarID, p float64) (float64, error) {
		orig := probs[x]
		probs[x] = p
		err := c.EvalInto(probs, lo, hi)
		probs[x] = orig
		if err != nil {
			return 0, fmt.Errorf("prob: %w", err)
		}
		l, h := lo[ti], hi[ti]
		if l < 0 {
			l = 0
		}
		if h > 1 {
			h = 1
		}
		if h < l {
			h = l
		}
		return TargetBound{Lower: l, Upper: h}.Estimate(), nil
	})
}

// influences builds the influence of every variable occurring in the
// network from cond(x, p), the target's probability with x's marginal
// pinned to p, sorted by decreasing |derivative| and then by variable.
func influences(net *network.Net, cond func(x event.VarID, p float64) (float64, error)) ([]VarInfluence, error) {
	var out []VarInfluence
	for x, id := range net.VarNode {
		if id == network.NoNode {
			continue
		}
		xv := event.VarID(x)
		condTrue, err := cond(xv, 1)
		if err != nil {
			return nil, err
		}
		condFalse, err := cond(xv, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, VarInfluence{
			Var:        xv,
			Name:       net.Space.Name(xv),
			CondTrue:   condTrue,
			CondFalse:  condFalse,
			Derivative: condTrue - condFalse,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := abs(out[i].Derivative), abs(out[j].Derivative)
		if di != dj {
			return di > dj
		}
		return out[i].Var < out[j].Var
	})
	return out, nil
}

// Explain renders the most influential variables of a target — the
// "explanation of the program result" use of events (§1).
func Explain(net *network.Net, opts Options, targetName string, top int) (string, error) {
	infl, err := Sensitivity(net, opts, targetName)
	if err != nil {
		return "", err
	}
	if top > 0 && top < len(infl) {
		infl = infl[:top]
	}
	s := fmt.Sprintf("influence on Pr[%s]:\n", targetName)
	for _, vi := range infl {
		s += fmt.Sprintf("  %-12s ∂Pr/∂p = %+.4f   (Pr|x = %.4f, Pr|¬x = %.4f)\n",
			vi.Name, vi.Derivative, vi.CondTrue, vi.CondFalse)
	}
	return s, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
