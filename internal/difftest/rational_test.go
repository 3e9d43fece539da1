package difftest

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"sync"
	"testing"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/worlds"
)

// The rational oracle is the order-free check on the golden corpus. Input
// probabilities are float64s, i.e. dyadic rationals, so a target's true
// marginal is an exact rational: the sum, over the worlds in which the
// target holds, of Π p·Π (1 − p) computed in math/big. It shares no code
// with the network builder or the compilers — worlds come from
// internal/worlds and each world's verdict from internal/interp running the
// program — so it can license golden bits that a builder change moves.

// ulpSlack is how far an exact or circuit bound may sit from the rational
// marginal: float64 summation of at most a few thousand products stays well
// inside it.
var ulpSlack = new(big.Rat).SetFloat64(math.Ldexp(1, -50))

// maxSummedError is the exact lines' summed distance from the rational
// marginals in the corpus recorded before the builder folded dist over ⊗
// nodes (2.800e-14; 2.487e-14 after). A regeneration must not drift
// farther from the truth than that order did.
const maxSummedError = 2.8e-14

// truthFunc returns the rational marginal of each named target.
type truthFunc func(t *testing.T, names []string) []*big.Rat

// worldMass is Pr(ν) as an exact rational: the product of SetFloat64(p) for
// each true variable and 1 − SetFloat64(p) for each false one.
func worldMass(space *event.Space, nu event.SliceValuation) *big.Rat {
	m := big.NewRat(1, 1)
	var p big.Rat
	one := big.NewRat(1, 1)
	for i, v := range nu {
		p.SetFloat64(space.Prob(event.VarID(i)))
		if !v {
			p.Sub(one, &p)
		}
		m.Mul(m, &p)
	}
	return m
}

// rationalSum enumerates the worlds of space and sums, per target, the
// exact mass of the worlds in which holds reports it true.
func rationalSum(t *testing.T, space *event.Space, n int, holds func(nu event.SliceValuation) ([]bool, error)) []*big.Rat {
	sums := make([]*big.Rat, n)
	for i := range sums {
		sums[i] = new(big.Rat)
	}
	worlds.Enumerate(space, func(nu event.SliceValuation, _ float64) bool {
		hold, err := holds(nu)
		if err != nil {
			t.Fatalf("world %v: %v", nu, err)
		}
		var m *big.Rat
		for i, h := range hold {
			if h {
				if m == nil {
					m = worldMass(space, nu)
				}
				sums[i].Add(sums[i], m)
			}
		}
		return true
	})
	return sums
}

// programTruth is the oracle of a case that has a program: each world's
// verdict is interp.Run's final value of the target's symbol.
func programTruth(t *testing.T, spec core.Spec, names []string) []*big.Rat {
	prog, err := lang.Parse(spec.Source)
	if err != nil {
		t.Fatal(err)
	}
	ext := interp.External{
		Objects: spec.Objects, Matrix: spec.Matrix, Params: spec.Params,
		InitIndices: spec.InitIndices, Metric: spec.Metric,
	}
	evs := lineage.Events(spec.Objects)
	return rationalSum(t, spec.Space, len(names), func(nu event.SliceValuation) ([]bool, error) {
		ext.Present = worlds.Presence(evs, nu)
		w, err := interp.Run(prog, ext)
		if err != nil {
			return nil, err
		}
		out := make([]bool, len(names))
		for i, name := range names {
			v, err := worldValue(w, name)
			if err != nil {
				return nil, err
			}
			if v.Kind != event.Boolean {
				return nil, fmt.Errorf("%s is %v, not Boolean", name, v)
			}
			out[i] = v.B
		}
		return out, nil
	})
}

// netTruth is the oracle of a case that has no program (builtin:mcl is
// encoded straight into a network): each world's verdict is the built
// network evaluated in that world. It shares the builder with the bits it
// checks, so it is the weaker oracle, kept for the one case that needs it.
func netTruth(build func(t *testing.T) *network.Net) truthFunc {
	return func(t *testing.T, names []string) []*big.Rat {
		net := build(t)
		nodes := make([]network.NodeID, len(names))
		for i, name := range names {
			nodes[i] = network.NoNode
			for _, tg := range net.Targets {
				if tg.Name == name {
					nodes[i] = tg.Node
				}
			}
			if nodes[i] == network.NoNode {
				t.Fatalf("no target %s in the network", name)
			}
		}
		return rationalSum(t, net.Space, len(names), func(nu event.SliceValuation) ([]bool, error) {
			a := net.Eval(nu)
			out := make([]bool, len(nodes))
			for i, id := range nodes {
				out[i] = a.Bools[id]
			}
			return out, nil
		})
	}
}

// boundError is max(|lower − truth|, |upper − truth|).
func boundError(lo, hi float64, truth *big.Rat) *big.Rat {
	var d, e big.Rat
	d.SetFloat64(lo)
	d.Sub(&d, truth)
	e.SetFloat64(hi)
	e.Sub(&e, truth)
	d.Abs(&d)
	e.Abs(&e)
	if d.Cmp(&e) < 0 {
		return &e
	}
	return &d
}

// checkTruth holds one strategy's bounds to the rational marginals. Exact
// and circuit bounds must both lie within 2^-50 of the truth. Hybrid bounds
// must contain the truth, widened by the same 2^-50 for the rounding of a
// target the walk decided exactly, and keep a gap of at most 2ε.
func checkTruth(strategy string, eps float64, bounds map[string][2]uint64, names []string, truth []*big.Rat) error {
	if len(bounds) != len(names) {
		return fmt.Errorf("%s: %d targets, oracle has %d", strategy, len(bounds), len(names))
	}
	var lo, hi big.Rat
	for i, name := range names {
		b, ok := bounds[name]
		if !ok {
			return fmt.Errorf("%s: no target %s", strategy, name)
		}
		l, h := math.Float64frombits(b[0]), math.Float64frombits(b[1])
		switch strategy {
		case "hybrid":
			lo.SetFloat64(l)
			lo.Sub(&lo, ulpSlack)
			hi.SetFloat64(h)
			hi.Add(&hi, ulpSlack)
			if truth[i].Cmp(&lo) < 0 || truth[i].Cmp(&hi) > 0 {
				return fmt.Errorf("%s: %s = [%v, %v] misses the rational marginal %s", strategy, name, l, h, truth[i].FloatString(20))
			}
			if h-l > 2*eps {
				return fmt.Errorf("%s: %s gap %g exceeds 2ε = %g", strategy, name, h-l, 2*eps)
			}
		default:
			if err := boundError(l, h, truth[i]); err.Cmp(ulpSlack) > 0 {
				f, _ := err.Float64()
				return fmt.Errorf("%s: %s = [%v, %v] is %.3g from the rational marginal %s", strategy, name, l, h, f, truth[i].FloatString(20))
			}
		}
	}
	return nil
}

// targetNames lists a corpus line's target names in line order.
func targetNames(line string) []string {
	var names []string
	for _, f := range strings.Fields(line)[5:] {
		names = append(names, f[:strings.LastIndexByte(f, '=')])
	}
	return names
}

// TestGoldenBitsAgainstRationalTruth holds every committed golden line to
// the rational oracle (checkTruth) and logs the exact lines' largest and
// summed distance from the truth, the figures a change that moves the bits
// must not make worse. The built-in programs take seconds of interpretation
// each (builtin:kmedoids has 1,024 worlds) and are skipped under -short.
func TestGoldenBitsAgainstRationalTruth(t *testing.T) {
	golden := readGolden(t)
	var mu sync.Mutex
	// progMax excludes builtin:mcl, whose oracle is the weaker netTruth.
	maxErr, progMax, sumErr := new(big.Rat), new(big.Rat), new(big.Rat)
	maxKey := ""
	t.Run("cases", func(t *testing.T) {
		for _, c := range goldenCases(t) {
			t.Run(c.key, func(t *testing.T) {
				t.Parallel()
				if golden[c.key] == "skip" {
					t.Skip("no comparable network")
				}
				if testing.Short() && strings.HasPrefix(c.key, "builtin:") {
					t.Skip("built-in programs are not short")
				}
				exact := goldenBounds(t, golden, c.key, "exact")
				names := targetNames(golden[c.key+" exact"])
				truth := c.truth(t, names)
				for _, s := range goldenStrategies {
					bounds := goldenBounds(t, golden, c.key, s.name)
					if err := checkTruth(s.name, s.opts.Epsilon, bounds, names, truth); err != nil {
						t.Fatalf("%s %v", c.key, err)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for i, name := range names {
					b := exact[name]
					e := boundError(math.Float64frombits(b[0]), math.Float64frombits(b[1]), truth[i])
					sumErr.Add(sumErr, e)
					if e.Cmp(maxErr) > 0 {
						maxErr, maxKey = e, c.key+" "+name
					}
					if c.key != "builtin:mcl" && e.Cmp(progMax) > 0 {
						progMax = e
					}
				}
			})
		}
	})
	mx, _ := maxErr.Float64()
	pm, _ := progMax.Float64()
	sm, _ := sumErr.Float64()
	t.Logf("exact lines against the rational marginals: max error %.4g (%s), %.4g without builtin:mcl, summed error %.4g", mx, maxKey, pm, sm)
	if sm > maxSummedError {
		t.Errorf("summed error %.4g exceeds the corpus ceiling %.4g", sm, maxSummedError)
	}
}
