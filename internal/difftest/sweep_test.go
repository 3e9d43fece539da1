package difftest

import (
	"context"
	"math"
	"testing"

	"enframe/internal/event"
	"enframe/internal/prob"
)

// TestSweepMatchesPointwiseReplay holds the one-pass what-if replay to the
// scalar one: for every golden-corpus network (the generated programs and
// the three built-ins), prob.EvalSweep over a variable equals
// prob.EvalCircuit at each grid point, bit for bit and after clamping.
// Each case sweeps every variable over uniform grids of 2, 32 and 256
// points, an explicit grid with repeats and both extremes — where whole
// lanes drop to zero mass — and the one-point grids.
func TestSweepMatchesPointwiseReplay(t *testing.T) {
	uniform := func(steps int) []float64 {
		g := make([]float64, steps)
		for i := range g {
			g[i] = float64(i) / float64(steps-1)
		}
		return g
	}
	grids := [][]float64{
		uniform(2), uniform(32), uniform(256),
		{0.3, 0.3, 0, 1, 0.3, 1, 0, 0.7, 0.7},
		{0.5}, {0}, {1},
	}
	if raceEnabled || testing.Short() {
		grids = [][]float64{uniform(32), {0.3, 0.3, 0, 1, 0.3, 1, 0}, {1}}
	}
	for _, gc := range goldenCases(t) {
		t.Run(gc.key, func(t *testing.T) {
			t.Parallel()
			net := gc.build(t)
			if net == nil {
				t.Skip("no comparable network")
			}
			c, _, err := prob.CompileCircuit(context.Background(), net, prob.Options{})
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			probs := prob.SpaceProbs(net.Space)
			nt := len(c.Targets())
			for v := range probs {
				for _, grid := range grids {
					n := len(grid)
					lo, hi := make([]float64, nt*n), make([]float64, nt*n)
					scratch := make([]float64, c.SweepScratch(n))
					if err := prob.EvalSweep(c, probs, event.VarID(v), grid, lo, hi, scratch); err != nil {
						t.Fatalf("sweep: %v", err)
					}
					at := append([]float64(nil), probs...)
					for j, p := range grid {
						at[v] = p
						want, err := prob.EvalCircuit(c, at)
						if err != nil {
							t.Fatalf("replay: %v", err)
						}
						for ti, w := range want.Targets {
							gl, gh := lo[ti*n+j], hi[ti*n+j]
							if math.Float64bits(gl) != math.Float64bits(w.Lower) ||
								math.Float64bits(gh) != math.Float64bits(w.Upper) {
								t.Fatalf("var %d, %d-point grid, lane %d (p=%g), %s: sweep [%v, %v], pointwise [%v, %v]",
									v, n, j, p, w.Name, gl, gh, w.Lower, w.Upper)
							}
						}
					}
				}
			}
		})
	}
}
