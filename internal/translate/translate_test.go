package translate

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/network"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

// TestExampleThreeLabels translates the paper's Example 3 and checks the
// final value the interpreter computes: 7+2, +0, +3·1, +1, +3·1, +1. Every
// step is a compile-time constant, so M grounds to the constant node. The
// example's getLabel labels (M0, M1.-1, …) are not materialised — no
// computation reads them — so only the value is left to check.
func TestExampleThreeLabels(t *testing.T) {
	prog := lang.MustParse(lang.Example3Source)
	b := network.NewBuilder(event.NewSpace(), nil)
	res, err := TranslateInto(prog, External{}, b)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := res.NumNode("M")
	if !ok {
		t.Fatal("no final numeric binding for M")
	}
	if want := b.ConstNum(event.Num(17)); id != want {
		t.Fatalf("final M grounds to node %d, not the constant 17 (node %d)", id, want)
	}
}

// diffProgram runs the translate-vs-interpret differential test on the
// built network: it is grounded with no targets, so every node is kept and
// the result's node ids index it, and in every world each symbol's node
// must evaluate to what the program computes in that world with absent
// objects bound to u.
func diffProgram(t *testing.T, src string, ext External, metric vec.Distance, syms []string) {
	t.Helper()
	prog := lang.MustParse(src)
	b := network.NewBuilder(ext.Space, metric)
	res, err := TranslateInto(prog, ext, b)
	if err != nil {
		t.Fatal(err)
	}
	net := b.Build()
	evs := lineage.Events(ext.Objects)
	worlds.Enumerate(ext.Space, func(nu event.SliceValuation, p float64) bool {
		present := worlds.Presence(evs, nu)
		w, err := interp.Run(prog, interp.External{
			Objects:     ext.Objects,
			Present:     present,
			Matrix:      ext.Matrix,
			Params:      ext.Params,
			InitIndices: ext.InitIndices,
			Metric:      metric,
		})
		if err != nil {
			t.Fatalf("interp: %v", err)
		}
		a := net.Eval(nu)
		for _, sym := range syms {
			var got event.Value
			if id, ok := res.BoolNode(sym); ok {
				got = event.Bool(a.Bools[id])
			} else if id, ok := res.NumNode(sym); ok {
				got = a.Nums[id]
			} else {
				t.Fatalf("no translated binding for %s", sym)
			}
			want, err := lookupWorldValue(w, sym)
			if err != nil {
				t.Fatal(err)
			}
			if !got.AlmostEqual(want, 1e-9) && !got.Equal(want) {
				t.Fatalf("world %v: %s: translated %v vs interpreted %v", nu, sym, got, want)
			}
		}
		return true
	})
}

// lookupWorldValue resolves a flattened symbol like "InCl[1][2]" in the
// interpreter's final environment.
func lookupWorldValue(w *interp.World, sym string) (event.Value, error) {
	name := sym
	var idx []int
	if i := indexByte(sym, '['); i >= 0 {
		name = sym[:i]
		rest := sym[i:]
		for len(rest) > 0 {
			j := indexByte(rest, ']')
			var n int
			fmt.Sscanf(rest[1:j], "%d", &n)
			idx = append(idx, n)
			rest = rest[j+1:]
		}
	}
	v, ok := w.Var(name)
	if !ok {
		return event.Value{}, fmt.Errorf("no interpreter variable %q", name)
	}
	for _, ix := range idx {
		if !v.IsArr() || ix >= len(v.Arr) {
			return event.Value{}, fmt.Errorf("bad index path %s", sym)
		}
		v = v.Arr[ix]
	}
	if v.None {
		return event.Value{}, fmt.Errorf("%s is uninitialised", sym)
	}
	return v.V, nil
}

func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

func uncertainObjects(t *testing.T, rng *rand.Rand, n int, scheme lineage.Scheme) ([]lineage.Object, *event.Space) {
	t.Helper()
	pts := make([]vec.Vec, n)
	for i := range pts {
		pts[i] = vec.New(float64(rng.Intn(25)), float64(rng.Intn(25)))
	}
	objs, space, err := lineage.Attach(pts, lineage.Config{
		Scheme: scheme, GroupSize: 2, NumVars: 4, L: 2, M: 3, Seed: rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return objs, space
}

// TestKMedoidsTranslationMatchesInterpreter checks the generic translation
// of Figure 1 against the per-world interpreter on every world.
func TestKMedoidsTranslationMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		objs, space := uncertainObjects(t, rng, 5, lineage.Scheme(trial%4))
		ext := External{
			Objects: objs, Space: space,
			Params:      []int{2, 2}, // k, iter
			InitIndices: []int{0, 1},
		}
		var syms []string
		for i := 0; i < 2; i++ {
			for l := 0; l < len(objs); l++ {
				syms = append(syms, fmt.Sprintf("InCl[%d][%d]", i, l))
				syms = append(syms, fmt.Sprintf("Centre[%d][%d]", i, l))
			}
		}
		diffProgram(t, lang.KMedoidsSource, ext, vec.SquaredEuclidean, syms)
	}
}

// TestKMeansTranslationMatchesInterpreter checks Figure 2 end to end,
// including the vector-valued centroid c-values. A suffix adds Spread, a
// pow and an invert over the uncertain cluster sizes (u for an empty
// cluster): the generator emits no invert() and MCL's certain matrix folds
// both away, so this is where they meet the interpreter on uncertain data.
func TestKMeansTranslationMatchesInterpreter(t *testing.T) {
	src := lang.KMeansSource + `Spread = [None] * k
for i in range(0,k):
    Spread[i] = invert(pow(reduce_count([1 for l in range(0,n) if InCl[i][l]]), 2))
`
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 6; trial++ {
		objs, space := uncertainObjects(t, rng, 4, lineage.Scheme(trial%4))
		ext := External{
			Objects: objs, Space: space,
			Params:      []int{2, 2},
			InitIndices: []int{0, 1},
		}
		syms := []string{"M[0]", "M[1]", "Spread[0]", "Spread[1]"}
		for i := 0; i < 2; i++ {
			for l := 0; l < len(objs); l++ {
				syms = append(syms, fmt.Sprintf("InCl[%d][%d]", i, l))
			}
		}
		diffProgram(t, src, ext, vec.SquaredEuclidean, syms)
	}
}

// TestMCLTranslationMatchesInterpreter checks Figure 3: a numeric program
// with products, powers, and inversions over a certain matrix.
func TestMCLTranslationMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	// A small symmetric stochastic-ish matrix.
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w := rng.Float64()
			m[i][j], m[j][i] = w, w
		}
	}
	pts := make([]vec.Vec, n)
	for i := range pts {
		pts[i] = vec.New(float64(i))
	}
	objs := lineage.Certain(pts)
	ext := External{
		Objects: objs, Space: event.NewSpace(),
		Matrix: m,
		Params: []int{2, 2}, // r, iter
	}
	var syms []string
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			syms = append(syms, fmt.Sprintf("M[%d][%d]", i, j))
		}
	}
	diffProgram(t, lang.MCLSource, ext, nil, syms)
}

// TestMCLUncertainTranslationMatchesInterpreter checks Figure 3 and its
// co-clustering suffix over uncertain objects: a cell of the matrix binding
// is its weight when both objects exist and 0 otherwise, in the network and
// in every world the interpreter runs.
func TestMCLUncertainTranslationMatchesInterpreter(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 4; trial++ {
		objs, space := uncertainObjects(t, rng, n, lineage.Scheme(trial))
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			for j := range m[i] {
				m[i][j] = 1 / (1 + objs[i].Pos.Sub(objs[j].Pos).Norm())
			}
		}
		ext := External{Objects: objs, Space: space, Matrix: m, Params: []int{2, 2}}
		var syms []string
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				syms = append(syms, fmt.Sprintf("M[%d][%d]", i, j), fmt.Sprintf("CoCl[%d][%d]", i, j))
			}
		}
		diffProgram(t, lang.MCLSource, ext, nil, syms)
	}
}

// TestMatrixBindingShape checks that both front ends reject a matrix
// binding that is not one row and one column per object.
func TestMatrixBindingShape(t *testing.T) {
	prog := lang.MustParse(lang.MCLSource)
	objs := lineage.Certain([]vec.Vec{vec.New(0), vec.New(1)})
	for _, m := range [][][]float64{nil, {{1, 0}}, {{1, 0}, {0}}, {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}} {
		b := network.NewBuilder(event.NewSpace(), nil)
		if _, err := TranslateInto(prog, External{Objects: objs, Matrix: m, Params: []int{2, 1}}, b); err == nil {
			t.Errorf("translate accepted matrix %v for 2 objects", m)
		}
		if _, err := interp.Run(prog, interp.External{Objects: objs, Matrix: m, Params: []int{2, 1}}); err == nil {
			t.Errorf("interp accepted matrix %v for 2 objects", m)
		}
	}
}

// TestTranslateIntoSharedProgram translates one parsed program from eight
// goroutines at once: slots are resolved at parse time and the AST is never
// written, so every goroutine must ground a network equal to a sequential
// run's (and `go test -race` must stay quiet).
func TestTranslateIntoSharedProgram(t *testing.T) {
	objs, space := uncertainObjects(t, rand.New(rand.NewSource(15)), 6, lineage.Positive)
	ext := External{Objects: objs, Space: space, Params: []int{2, 3}, InitIndices: []int{0, 1}}
	prog := lang.MustParse(lang.KMedoidsSource)
	build := func() (*network.Net, error) {
		b := network.NewBuilder(space, nil)
		res, err := TranslateInto(prog, ext, b)
		if err != nil {
			return nil, err
		}
		for _, sym := range res.SymbolsWithPrefix("Centre[") {
			id, _ := res.BoolNode(sym)
			b.Target(sym, id)
		}
		return b.Build(), nil
	}
	want, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Targets) == 0 {
		t.Fatal("no Centre targets")
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := build()
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			} else if !network.Equal(got, want) {
				t.Errorf("goroutine %d grounded a different network", g)
			}
		}()
	}
	wg.Wait()
}

// TestLoopVariablesShadow: a for or reduce_* variable shadows an outer
// binding of the same name — also a comprehension inside a loop over the
// same name — and the outer value is back once the loop or reduction ends.
func TestLoopVariablesShadow(t *testing.T) {
	const src = `
i = 7
s = 0
for i in range(0, 3):
    s = s + i
a = i
r = reduce_sum([i * 2 for i in range(0, 4)])
b = i
for i in range(0, 2):
    u = reduce_sum([i for i in range(0, 5)])
    c = i
d = i
`
	want := map[string]float64{"s": 3, "a": 7, "r": 12, "b": 7, "u": 10, "c": 1, "d": 7}
	b := network.NewBuilder(event.NewSpace(), nil)
	net, err := TranslateInto(lang.MustParse(src), External{}, b)
	if err != nil {
		t.Fatal(err)
	}
	for sym, x := range want {
		if id, ok := net.NumNode(sym); !ok || id != b.ConstNum(event.Num(x)) {
			t.Errorf("%s grounds to node %d, not the constant %v", sym, id, x)
		}
	}
}

// TestComprehensionVariableUnbound: a reduce_* variable with no outer
// binding is unbound again after its reduction, so it has no final binding.
func TestComprehensionVariableUnbound(t *testing.T) {
	prog := lang.MustParse("r = reduce_or([True for j in range(0, 3)])\n")
	net, err := TranslateInto(prog, External{}, network.NewBuilder(event.NewSpace(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if !net.HasBool("r") {
		t.Fatal("no final binding for r")
	}
	if _, ok := net.NumNode("j"); ok {
		t.Error("the comprehension variable j is still bound after reduce_or")
	}
}

// TestUndefinedNamePosition: a name the validator accepts but that is
// unbound when read — assigned only inside a loop that never runs — fails
// with the position of the read.
func TestUndefinedNamePosition(t *testing.T) {
	prog := lang.MustParse("for i in range(0, 0):\n    x = 1\ny = x\n")
	const want = `translate: 3:5: undefined name "x"`
	if _, err := TranslateInto(prog, External{}, network.NewBuilder(event.NewSpace(), nil)); err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}
