package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"enframe/internal/event"
)

// genTree grows a random decision tree into b over variables v..nVars-1,
// deciding every target in undecided exactly once on each root-leaf path —
// the smoothness invariant the exact compiler guarantees for complete
// traces. Called with identical rng streams it reproduces the identical
// tree, which the consing-invariance and complement properties rely on.
func genTree(rng *rand.Rand, b *Builder, v, nVars int, undecided []int, flip bool) NodeID {
	var here []Decision
	var rest []int
	for _, t := range undecided {
		if v == nVars || rng.Float64() < 0.3 {
			here = append(here, NewDecision(t, rng.Intn(2) == 0 != flip))
		} else {
			rest = append(rest, t)
		}
	}
	if v == nVars || len(rest) == 0 {
		return b.Node(-1, None, None, here)
	}
	hi := genTree(rng, b, v+1, nVars, rest, flip)
	lo := genTree(rng, b, v+1, nVars, rest, flip)
	return b.Node(event.VarID(v), hi, lo, here)
}

// eval is Eval into fresh bound slices.
func eval(c *Circuit, probs []float64) (lo, hi []float64, err error) {
	lo, hi = make([]float64, len(c.Targets())), make([]float64, len(c.Targets()))
	return lo, hi, c.Eval(probs, lo, hi)
}

func buildRandom(seed int64, nVars, nTargets int, cons, flip bool) *Circuit {
	names := make([]string, nTargets)
	undecided := make([]int, nTargets)
	for i := range undecided {
		undecided[i] = i
	}
	b := NewBuilder(nVars, names)
	if !cons {
		b.DisableConsing()
	}
	root := genTree(rand.New(rand.NewSource(seed)), b, 0, nVars, undecided, flip)
	return b.Finish(root, true)
}

// TestQuickEvaluatorProperties drives the evaluator's algebraic contract
// over random complete circuits and random probability assignments:
//
//   - determinism: two evaluations of the same circuit are bit-equal;
//   - consing invariance: the hash-consed circuit evaluates bit-identically
//     to the unshared tree, and the unshared tree's node count equals the
//     consed circuit's replay size (TreeBranches);
//   - smoothness: every path decides every target once, so the true mass
//     and false mass of each target partition the unit mass — lower +
//     (1 − upper) = 1;
//   - complement consistency: flipping every decision swaps the roles of
//     the bounds — lower' = 1 − upper and upper' = 1 − lower.
func TestQuickEvaluatorProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nVars := 1 + rng.Intn(6)
		nTargets := 1 + rng.Intn(4)
		c := buildRandom(seed, nVars, nTargets, true, false)
		flat := buildRandom(seed, nVars, nTargets, false, false)
		comp := buildRandom(seed, nVars, nTargets, true, true)

		probs := make([]float64, nVars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		lo1, hi1, err := eval(c, probs)
		if err != nil {
			t.Fatalf("seed %d: eval: %v", seed, err)
		}
		lo2, hi2, err := eval(c, probs)
		if err != nil {
			t.Fatalf("seed %d: re-eval: %v", seed, err)
		}
		loF, hiF, err := eval(flat, probs)
		if err != nil {
			t.Fatalf("seed %d: unconsed eval: %v", seed, err)
		}
		loC, hiC, err := eval(comp, probs)
		if err != nil {
			t.Fatalf("seed %d: complement eval: %v", seed, err)
		}

		if int64(flat.Nodes()) != c.TreeBranches() {
			t.Fatalf("seed %d: unconsed tree has %d nodes, consed replay size %d",
				seed, flat.Nodes(), c.TreeBranches())
		}
		if c.Nodes() > flat.Nodes() {
			t.Fatalf("seed %d: consing grew the circuit: %d > %d", seed, c.Nodes(), flat.Nodes())
		}
		const tol = 1e-9
		for i := range lo1 {
			if math.Float64bits(lo1[i]) != math.Float64bits(lo2[i]) ||
				math.Float64bits(hi1[i]) != math.Float64bits(hi2[i]) {
				t.Fatalf("seed %d: target %d: evaluation not deterministic", seed, i)
			}
			if math.Float64bits(lo1[i]) != math.Float64bits(loF[i]) ||
				math.Float64bits(hi1[i]) != math.Float64bits(hiF[i]) {
				t.Fatalf("seed %d: target %d: consed [%g,%g] vs unconsed [%g,%g]",
					seed, i, lo1[i], hi1[i], loF[i], hiF[i])
			}
			if mass := lo1[i] + (1 - hi1[i]); math.Abs(mass-1) > tol {
				t.Fatalf("seed %d: target %d: true+false mass %g, want 1", seed, i, mass)
			}
			if math.Abs(loC[i]-(1-hi1[i])) > tol || math.Abs(hiC[i]-(1-lo1[i])) > tol {
				t.Fatalf("seed %d: target %d: complement [%g,%g] vs expected [%g,%g]",
					seed, i, loC[i], hiC[i], 1-hi1[i], 1-lo1[i])
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionPacking(t *testing.T) {
	for _, tc := range []struct {
		target int
		isTrue bool
	}{{0, true}, {0, false}, {7, true}, {1 << 20, false}} {
		d := NewDecision(tc.target, tc.isTrue)
		if target, isTrue := int(d>>1), d&1 != 0; target != tc.target || isTrue != tc.isTrue {
			t.Errorf("NewDecision(%d, %t) round-tripped to (%d, %t)",
				tc.target, tc.isTrue, target, isTrue)
		}
	}
}

// TestConsingMergesIsomorphic pins the core storage property: identical
// leaves and identical interior nodes are stored once.
func TestConsingMergesIsomorphic(t *testing.T) {
	b := NewBuilder(2, []string{"t"})
	l1 := b.Node(-1, None, None, []Decision{NewDecision(0, true)})
	l2 := b.Node(-1, None, None, []Decision{NewDecision(0, true)})
	if l1 != l2 {
		t.Fatalf("identical leaves got distinct ids %d, %d", l1, l2)
	}
	l3 := b.Node(-1, None, None, []Decision{NewDecision(0, false)})
	if l3 == l1 {
		t.Fatal("distinct leaves were merged")
	}
	n1 := b.Node(0, l1, l3, nil)
	n2 := b.Node(0, l1, l3, nil)
	if n1 != n2 {
		t.Fatalf("identical interior nodes got distinct ids %d, %d", n1, n2)
	}
	root := b.Node(1, n1, n2, nil)
	c := b.Finish(root, true)
	if c.Nodes() != 4 {
		t.Errorf("stored %d nodes, want 4 (two leaves, one interior, root): 2 of 6 Node calls merged", c.Nodes())
	}
	// The consed diamond still replays as the full 7-node tree.
	if c.TreeBranches() != 7 {
		t.Errorf("replay size %d, want 7", c.TreeBranches())
	}
}

func TestEvalValidation(t *testing.T) {
	b := NewBuilder(2, []string{"t"})
	root := b.Node(-1, None, None, []Decision{NewDecision(0, true)})
	c := b.Finish(root, true)
	if _, _, err := eval(c, []float64{0.5}); err == nil {
		t.Error("short probability vector accepted")
	}
	if _, _, err := eval(c, []float64{0.5, 1.5}); err == nil {
		t.Error("probability outside [0, 1] accepted")
	}
	if _, _, err := eval(c, []float64{0.5, math.NaN()}); err == nil {
		t.Error("NaN probability accepted")
	}
	if err := c.Eval([]float64{0.5, 0.5}, make([]float64, 1), make([]float64, 2)); err == nil {
		t.Error("bound slots for two targets accepted by a one-target circuit")
	}
}

// TestEvalOverwritesDestination: Eval fully rewrites the bound slices it is
// handed, so a caller replaying into the same slices at every push reads
// the same bits as a fresh evaluation.
func TestEvalOverwritesDestination(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		c := buildRandom(seed, 4, 3, true, false)
		probs := []float64{0.1, 0.7, 0.3, 0.9}
		want, wantHi, err := eval(c, probs)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := []float64{math.NaN(), 7, -1}, []float64{math.Inf(1), 0.5, math.NaN()}
		if err := c.Eval(probs, lo, hi); err != nil {
			t.Fatal(err)
		}
		for i := range lo {
			if math.Float64bits(lo[i]) != math.Float64bits(want[i]) || math.Float64bits(hi[i]) != math.Float64bits(wantHi[i]) {
				t.Fatalf("seed %d target %d: reused slots [%v, %v], fresh [%v, %v]", seed, i, lo[i], hi[i], want[i], wantHi[i])
			}
		}
	}
}

// TestNoneChildSkipped checks replay over a pruned (incomplete) circuit: the
// missing subtree contributes nothing, and the completeness flag records
// that the circuit must not serve other probability assignments.
func TestNoneChildSkipped(t *testing.T) {
	b := NewBuilder(1, []string{"t"})
	leaf := b.Node(-1, None, None, []Decision{NewDecision(0, true)})
	root := b.Node(0, leaf, None, nil)
	c := b.Finish(root, false)
	if c.Complete() {
		t.Fatal("pruned circuit reports complete")
	}
	lo, hi, err := eval(c, []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0.25 || hi[0] != 1 {
		t.Errorf("bounds [%g, %g], want [0.25, 1]", lo[0], hi[0])
	}
}

// sweepGrids are the lane sets the sweep tests replay: uniform grids of 2,
// 32 and 256 points, an explicit grid with repeats and both extremes (whole
// lanes go to zero mass at 0 and 1), and one-point grids.
func sweepGrids() [][]float64 {
	uniform := func(steps int) []float64 {
		g := make([]float64, steps)
		for i := range g {
			g[i] = float64(i) / float64(steps-1)
		}
		return g
	}
	return [][]float64{
		uniform(2), uniform(32), uniform(256),
		{0.3, 0.3, 0, 1, 0.3, 1, 0, 0.7, 0.7},
		{0.5}, {0}, {1},
	}
}

// TestEvalSweepMatchesEval: every lane of a sweep is bit-identical to a
// scalar evaluation at its assignment, for random circuits complete and
// pruned, every swept variable and every grid of sweepGrids.
func TestEvalSweepMatchesEval(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nVars, nTargets := 1+rng.Intn(6), 1+rng.Intn(4)
		c := buildRandom(seed, nVars, nTargets, true, false)
		if seed%4 == 0 {
			// A pruned circuit: the root's false child is missing.
			b := NewBuilder(nVars, c.targets)
			root := b.Node(0, genTree(rng, b, 1, nVars, []int{0}, false), None, nil)
			c = b.Finish(root, false)
		}
		probs := make([]float64, nVars)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		for v := range probs {
			for _, grid := range sweepGrids() {
				if err := checkSweep(c, probs, event.VarID(v), grid); err != "" {
					t.Fatalf("seed %d, var %d, %d-point grid: %s", seed, v, len(grid), err)
				}
			}
		}
	}
}

// checkSweep compares c.EvalSweep with c.Eval at every lane's assignment
// and describes the first difference.
func checkSweep(c *Circuit, probs []float64, v event.VarID, grid []float64) string {
	n := len(c.Targets()) * len(grid)
	lo, hi := make([]float64, n), make([]float64, n)
	if err := c.EvalSweep(probs, v, grid, lo, hi, make([]float64, c.SweepScratch(len(grid)))); err != nil {
		return err.Error()
	}
	at := append([]float64(nil), probs...)
	for j, p := range grid {
		at[v] = p
		wantLo, wantHi, err := eval(c, at)
		if err != nil {
			return err.Error()
		}
		for ti := range wantLo {
			gotLo, gotHi := lo[ti*len(grid)+j], hi[ti*len(grid)+j]
			if math.Float64bits(gotLo) != math.Float64bits(wantLo[ti]) ||
				math.Float64bits(gotHi) != math.Float64bits(wantHi[ti]) {
				return fmt.Sprintf("lane %d (p=%g), target %d: sweep [%v, %v], scalar [%v, %v]",
					j, p, ti, gotLo, gotHi, wantLo[ti], wantHi[ti])
			}
		}
	}
	return ""
}

func TestEvalSweepValidation(t *testing.T) {
	b := NewBuilder(2, []string{"t"})
	leaf := b.Node(-1, None, None, []Decision{NewDecision(0, true)})
	c := b.Finish(b.Node(0, leaf, None, nil), true)
	grid := []float64{0, 1}
	ok := func() (lo, hi, scratch []float64) {
		return make([]float64, 2), make([]float64, 2), make([]float64, c.SweepScratch(2))
	}
	lo, hi, scratch := ok()
	if err := c.EvalSweep([]float64{0.5, 0.5}, 0, grid, lo, hi, scratch); err != nil {
		t.Fatalf("well-formed sweep rejected: %v", err)
	}
	for name, call := range map[string]func() error{
		"short probability vector": func() error { return c.EvalSweep([]float64{0.5}, 0, grid, lo, hi, scratch) },
		"variable out of range":    func() error { return c.EvalSweep([]float64{0.5, 0.5}, 2, grid, lo, hi, scratch) },
		"grid point outside [0,1]": func() error {
			return c.EvalSweep([]float64{0.5, 0.5}, 0, []float64{0, math.NaN()}, lo, hi, scratch)
		},
		"mis-sized lane matrix": func() error { return c.EvalSweep([]float64{0.5, 0.5}, 0, grid, lo[:1], hi, scratch) },
		"short scratch":         func() error { return c.EvalSweep([]float64{0.5, 0.5}, 0, grid, lo, hi, scratch[:1]) },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
