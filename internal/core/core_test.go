package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

// TestRunKMedoidsEndToEnd runs the full pipeline (parse → translate →
// network → compile) on Figure 1's program and cross-checks the medoid
// probabilities against the per-world naïve baseline. The generic
// translation follows the paper's unguarded encoding, so the comparison
// uses fully certain data plus one uncertain tail object, where both
// encodings agree with the subset semantics.
func TestRunKMedoidsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := make([]vec.Vec, 6)
	for i := range pts {
		pts[i] = vec.New(float64(rng.Intn(20)), float64(rng.Intn(20)))
	}
	objs, space, err := lineage.Attach(pts, lineage.Config{
		Scheme: lineage.Independent, GroupSize: 2, CertainFraction: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Spec{
		Source:      lang.KMedoidsSource,
		Objects:     objs,
		Space:       space,
		Params:      []int{2, 2},
		InitIndices: []int{0, 1},
		Metric:      vec.SquaredEuclidean,
		Targets:     []string{"Centre["},
		Compile:     prob.Options{Strategy: prob.Exact},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Result.Targets); got != 2*len(objs) {
		t.Fatalf("got %d targets, want %d", got, 2*len(objs))
	}
	for _, tb := range rep.Result.Targets {
		if tb.Gap() > 1e-9 {
			t.Fatalf("%s did not converge: [%g, %g]", tb.Name, tb.Lower, tb.Upper)
		}
	}
	// Cross-check against brute force: run the program per world through
	// the interpreter (absent objects bound to u, exactly the semantics
	// the generic translation encodes) and accumulate probabilities.
	prog := lang.MustParse(lang.KMedoidsSource)
	evs := lineage.Events(objs)
	want := map[string]float64{}
	worlds.Enumerate(space, func(nu event.SliceValuation, p float64) bool {
		present := worlds.Presence(evs, nu)
		w, err := interp.Run(prog, interp.External{
			Objects: objs, Present: present,
			Params: []int{2, 2}, InitIndices: []int{0, 1},
			Metric: vec.SquaredEuclidean,
		})
		if err != nil {
			t.Fatal(err)
		}
		centre, err := w.BoolMatrix("Centre")
		if err != nil {
			t.Fatal(err)
		}
		for i := range centre {
			for l := range centre[i] {
				if centre[i][l] {
					want[fmt.Sprintf("Centre[%d][%d]", i, l)] += p
				}
			}
		}
		return true
	})
	for _, tb := range rep.Result.Targets {
		if d := tb.Lower - want[tb.Name]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: pipeline %g vs per-world interpreter %g", tb.Name, tb.Lower, want[tb.Name])
		}
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Spec{Source: "x = ("}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := Run(Spec{Source: "x = 1\n"}); err == nil {
		t.Error("expected no-targets error")
	}
	if _, err := Run(Spec{Source: "x = 1\n", Targets: []string{"nope["}}); err == nil {
		t.Error("expected unknown-target error")
	}
	// Exponents live in the network's 32-bit payload column.
	if _, err := Run(Spec{Source: "x = pow(2, 3000000000)\n", Targets: []string{"x"}}); err == nil ||
		!strings.Contains(err.Error(), "exponent 3000000000 out of range") {
		t.Errorf("expected an out-of-range exponent error, got %v", err)
	}
}
