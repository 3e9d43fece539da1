package interp

import (
	"math/rand"
	"strings"
	"testing"

	"enframe/internal/cluster"
	"enframe/internal/event"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/vec"
)

func runSrc(t *testing.T, src string, ext External) *World {
	t.Helper()
	w, err := Run(lang.MustParse(src), ext)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func scalar(t *testing.T, w *World, name string) float64 {
	t.Helper()
	v, ok := w.Var(name)
	if !ok || v.IsArr() || v.None || v.V.Kind != event.Scalar {
		t.Fatalf("variable %q is not a scalar: %+v", name, v)
	}
	return v.V.S
}

func TestArithmeticAndLoops(t *testing.T) {
	w := runSrc(t, lang.Example3Source, External{})
	if got := scalar(t, w, "M"); got != 17 {
		t.Errorf("M = %g, want 17", got)
	}
}

func TestReduceSemantics(t *testing.T) {
	src := `
		s = reduce_sum([i for i in range(0, 4)])
		c = reduce_count([1 for i in range(0, 5) if i < 2])
		a = reduce_and([i < 9 for i in range(0, 3)])
		a2 = reduce_and([i < 1 for i in range(0, 3)])
		o = reduce_or([i == 2 for i in range(0, 3)])
		m = reduce_mult([i + 1 for i in range(0, 4)])
	`
	w := runSrc(t, src, External{})
	if got := scalar(t, w, "s"); got != 6 {
		t.Errorf("s = %g", got)
	}
	if got := scalar(t, w, "c"); got != 2 {
		t.Errorf("c = %g", got)
	}
	if v, _ := w.Var("a"); !v.V.B {
		t.Error("a should be true")
	}
	if v, _ := w.Var("a2"); v.V.B {
		t.Error("a2 should be false")
	}
	if v, _ := w.Var("o"); !v.V.B {
		t.Error("o should be true")
	}
	if got := scalar(t, w, "m"); got != 24 {
		t.Errorf("m = %g", got)
	}
}

func TestEmptyReductionsAreUndefined(t *testing.T) {
	// Per the event-language translation, empty sums and counts are u.
	src := `
		s = reduce_sum([i for i in range(0, 3) if i > 9])
		c = reduce_count([1 for i in range(0, 0)])
	`
	w := runSrc(t, src, External{})
	for _, name := range []string{"s", "c"} {
		v, _ := w.Var(name)
		if !v.V.IsUndef() {
			t.Errorf("%s = %v, want u", name, v.V)
		}
	}
}

func TestUndefComparisonSemantics(t *testing.T) {
	src := `
		u = invert(0)
		b = u <= 3
		m = u * 5
		s = u + 7
	`
	w := runSrc(t, src, External{})
	if v, _ := w.Var("b"); !v.V.B {
		t.Error("u <= 3 must hold (§3.2)")
	}
	if v, _ := w.Var("m"); !v.V.IsUndef() {
		t.Error("u · 5 must be u")
	}
	if got := scalar(t, w, "s"); got != 7 {
		t.Errorf("u + 7 = %g, want 7", got)
	}
}

func TestLoadDataBindsObjects(t *testing.T) {
	objs := lineage.Certain([]vec.Vec{vec.New(1, 2), vec.New(3, 4)})
	src := `
		(O, n) = loadData()
		d = dist(O[0], O[1])
	`
	w := runSrc(t, src, External{Objects: objs})
	if got := scalar(t, w, "n"); got != 2 {
		t.Errorf("n = %g", got)
	}
	if got := scalar(t, w, "d"); got < 2.82 || got > 2.83 {
		t.Errorf("d = %g, want 2√2", got)
	}
}

func TestAbsentObjectsAreUndefined(t *testing.T) {
	objs := lineage.Certain([]vec.Vec{vec.New(0), vec.New(5)})
	src := `
		(O, n) = loadData()
		d = dist(O[0], O[1])
	`
	w := runSrc(t, src, External{Objects: objs, Present: []bool{true, false}})
	if v, _ := w.Var("d"); !v.V.IsUndef() {
		t.Errorf("distance to absent object = %v, want u", v.V)
	}
}

// TestKMedoidsProgramMatchesDirectImplementation runs Figure 1's program
// through the interpreter on fully present data and compares against the
// dedicated cluster.KMedoids implementation.
func TestKMedoidsProgramMatchesDirectImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(5)
		pts := make([]vec.Vec, n)
		for i := range pts {
			pts[i] = vec.New(float64(rng.Intn(30)), float64(rng.Intn(30)))
		}
		k := 2 + rng.Intn(2)
		iter := 1 + rng.Intn(3)
		init := rng.Perm(n)[:k]

		w := runSrc(t, lang.KMedoidsSource, External{
			Objects:     lineage.Certain(pts),
			Params:      []int{k, iter},
			InitIndices: init,
			Metric:      vec.SquaredEuclidean,
		})
		gotIn, err := w.BoolMatrix("InCl")
		if err != nil {
			t.Fatal(err)
		}
		gotC, err := w.BoolMatrix("Centre")
		if err != nil {
			t.Fatal(err)
		}
		want := cluster.KMedoids(pts, nil, k, iter, init, vec.SquaredEuclidean)
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				if gotIn[i][l] != want.InCl[i][l] {
					t.Fatalf("trial %d: InCl[%d][%d]: program %t vs direct %t",
						trial, i, l, gotIn[i][l], want.InCl[i][l])
				}
				if gotC[i][l] != want.Centre[i][l] {
					t.Fatalf("trial %d: Centre[%d][%d]: program %t vs direct %t",
						trial, i, l, gotC[i][l], want.Centre[i][l])
				}
			}
		}
	}
}

// TestKMeansProgramMatchesDirectImplementation does the same for Figure 2.
func TestKMeansProgramMatchesDirectImplementation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(5)
		pts := make([]vec.Vec, n)
		for i := range pts {
			pts[i] = vec.New(float64(rng.Intn(30)), float64(rng.Intn(30)))
		}
		k := 2
		iter := 1 + rng.Intn(3)
		init := rng.Perm(n)[:k]

		w := runSrc(t, lang.KMeansSource, External{
			Objects:     lineage.Certain(pts),
			Params:      []int{k, iter},
			InitIndices: init,
			Metric:      vec.SquaredEuclidean,
		})
		got, err := w.BoolMatrix("InCl")
		if err != nil {
			t.Fatal(err)
		}
		want := cluster.KMeans(pts, k, iter, init, vec.SquaredEuclidean)
		for i := 0; i < k; i++ {
			for l := 0; l < n; l++ {
				if got[i][l] != want.InCl[i][l] {
					t.Fatalf("trial %d: InCl[%d][%d] mismatch", trial, i, l)
				}
			}
		}
		mv, _ := w.Var("M")
		for i := 0; i < k; i++ {
			if !mv.Arr[i].V.AlmostEqual(want.Centroids[i], 1e-9) && !mv.Arr[i].V.Equal(want.Centroids[i]) {
				t.Fatalf("trial %d: centroid %d: %v vs %v", trial, i, mv.Arr[i].V, want.Centroids[i])
			}
		}
	}
}

func TestBreakTiesBuiltins(t *testing.T) {
	src := `
		A = [None] * 3
		A[0] = True
		A[1] = True
		A[2] = False
		B = breakTies(A)
	`
	w := runSrc(t, src, External{})
	b, _ := w.Var("B")
	if !b.Arr[0].V.B || b.Arr[1].V.B || b.Arr[2].V.B {
		t.Errorf("breakTies = %v", b)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]External{
		"M = [None] * 2\nx = M[5]\n":                      {},
		"(k, j) = loadParams()\n":                         {Params: []int{1}},
		"x = 1\ny = x + dist(x, x)\n":                     {},
		"M = [None] * 2\nM[0][1] = 1\n":                   {},
		"x = reduce_sum([1 for i in range(0, 2) if i])\n": {},
	}
	for src, ext := range cases {
		if _, err := Run(lang.MustParse(src), ext); err == nil {
			t.Errorf("expected runtime error for %q", strings.TrimSpace(src))
		}
	}
}
