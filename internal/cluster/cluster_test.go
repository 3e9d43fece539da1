package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/interp"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

func twoBlobs(rng *rand.Rand, n int) []vec.Vec {
	pts := make([]vec.Vec, n)
	for i := range pts {
		cx := 0.0
		if i >= n/2 {
			cx = 100
		}
		pts[i] = vec.New(cx+rng.Float64()*5, rng.Float64()*5)
	}
	return pts
}

func TestKMedoidsSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	pts := twoBlobs(rng, n)
	r := KMedoids(pts, nil, 2, 4, []int{0, n - 1}, nil)
	for l := 0; l < n; l++ {
		wantCluster := 0
		if l >= n/2 {
			wantCluster = 1
		}
		if !r.InCl[wantCluster][l] {
			t.Errorf("object %d not in cluster %d", l, wantCluster)
		}
		if r.InCl[1-wantCluster][l] {
			t.Errorf("object %d in both clusters", l)
		}
	}
	for i := 0; i < 2; i++ {
		medoids := 0
		for l := 0; l < n; l++ {
			if r.Centre[i][l] {
				medoids++
				if !r.InCl[i][l] {
					t.Errorf("medoid %d of cluster %d is not a member", l, i)
				}
			}
		}
		if medoids != 1 {
			t.Errorf("cluster %d has %d medoids", i, medoids)
		}
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20
	pts := twoBlobs(rng, n)
	r := KMeans(pts, 2, 4, []int{0, n - 1}, nil)
	for l := 0; l < n; l++ {
		wantCluster := 0
		if l >= n/2 {
			wantCluster = 1
		}
		if !r.InCl[wantCluster][l] {
			t.Errorf("object %d not in cluster %d", l, wantCluster)
		}
	}
	for i, c := range r.Centroids {
		if c.Kind != event.Vector {
			t.Fatalf("centroid %d is %v", i, c)
		}
	}
	if r.Centroids[0].V[0] > 50 || r.Centroids[1].V[0] < 50 {
		t.Errorf("centroids %v / %v not separated", r.Centroids[0], r.Centroids[1])
	}
}

func TestAbsentObjectsAreUndefined(t *testing.T) {
	// o1 is absent, so it is u: every comparison with it holds. It joins
	// cluster 0, adds nothing to the distance sums of present objects and
	// competes for every medoid; o0 still wins cluster 0 by index order.
	pts := []vec.Vec{vec.New(0), vec.New(1), vec.New(50), vec.New(51)}
	present := []bool{true, false, true, true}
	r := KMedoids(pts, present, 2, 1, []int{0, 2}, nil)
	wantIn := [][]bool{{true, true, false, false}, {false, false, true, true}}
	wantC := [][]bool{{true, false, false, false}, {false, true, false, false}}
	for i := range wantIn {
		for l := range wantIn[i] {
			if r.InCl[i][l] != wantIn[i][l] || r.Centre[i][l] != wantC[i][l] {
				t.Fatalf("InCl = %v, Centre = %v; want %v, %v", r.InCl, r.Centre, wantIn, wantC)
			}
		}
	}
}

func TestAbsentInitialMedoid(t *testing.T) {
	// The cluster with an absent initial medoid has an undefined medoid;
	// comparisons against u hold, so every object lands in the first
	// cluster after tie-breaking.
	pts := []vec.Vec{vec.New(0), vec.New(1), vec.New(2)}
	present := []bool{true, true, false}
	r := KMedoids(pts, present, 2, 1, []int{2, 0}, nil)
	if !r.InCl[0][0] || !r.InCl[0][1] {
		t.Errorf("objects should fall into cluster 0 (undefined medoid): %v", r.InCl)
	}
}

func TestEmptyWorld(t *testing.T) {
	// Every object is u: all of them join cluster 0, every distance sum is
	// u, and each cluster elects the first object.
	pts := []vec.Vec{vec.New(0), vec.New(1)}
	present := []bool{false, false}
	r := KMedoids(pts, present, 2, 2, []int{0, 1}, nil)
	for i := range r.Centre {
		for l := range r.Centre[i] {
			if r.InCl[i][l] != (i == 0) || r.Centre[i][l] != (l == 0) {
				t.Fatalf("empty world: InCl = %v, Centre = %v", r.InCl, r.Centre)
			}
		}
	}
}

// smallTask is a seeded k-medoids input small enough to enumerate: n ≤ 8
// objects on an integer grid, so ties are common, under the given scheme.
type smallTask struct {
	objs    []lineage.Object
	space   *event.Space
	k, iter int
	init    []int
}

func smallTasks(t *testing.T) []smallTask {
	t.Helper()
	var tasks []smallTask
	for _, scheme := range []lineage.Scheme{lineage.Positive, lineage.Mutex, lineage.Conditional} {
		rng := rand.New(rand.NewSource(int64(scheme) + 11))
		for trial := 0; trial < 6; trial++ {
			n := 4 + rng.Intn(5)
			pts := make([]vec.Vec, n)
			for i := range pts {
				pts[i] = vec.New(float64(rng.Intn(8)), float64(rng.Intn(8)))
			}
			objs, space, err := lineage.Attach(pts, lineage.Config{
				Scheme: scheme, GroupSize: 1 + rng.Intn(2), NumVars: 5, L: 2, M: 3,
				Seed: rng.Int63(),
			})
			if err != nil {
				t.Fatal(err)
			}
			k := 2 + rng.Intn(2)
			tasks = append(tasks, smallTask{objs, space, k, 1 + rng.Intn(3), rng.Perm(n)[:k]})
		}
	}
	return tasks
}

// TestKMedoidsMatchesProgramPerWorld holds KMedoids to the translated
// semantics: in every world it agrees with Figure 1's program run by the
// interpreter, absent objects included. Worlds with the same objects are
// checked once.
func TestKMedoidsMatchesProgramPerWorld(t *testing.T) {
	prog := lang.MustParse(lang.KMedoidsSource)
	for ti, tk := range smallTasks(t) {
		evs := lineage.Events(tk.objs)
		points := lineage.Positions(tk.objs)
		seen := map[worlds.PresenceKey]bool{}
		worlds.Enumerate(tk.space, func(nu event.SliceValuation, _ float64) bool {
			key, present, _ := worlds.KeyOf(evs, nu)
			if seen[key] {
				return true
			}
			seen[key] = true
			w, err := interp.Run(prog, interp.External{
				Objects: tk.objs, Present: present, Params: []int{tk.k, tk.iter},
				InitIndices: tk.init, Metric: vec.SquaredEuclidean,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := KMedoids(points, present, tk.k, tk.iter, tk.init, vec.SquaredEuclidean)
			for name, got := range map[string][][]bool{"InCl": r.InCl, "Centre": r.Centre} {
				want, err := w.BoolMatrix(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for l := range want[i] {
						if got[i][l] != want[i][l] {
							t.Fatalf("task %d, present %v: %s[%d][%d] = %t, program says %t",
								ti, present, name, i, l, got[i][l], want[i][l])
						}
					}
				}
			}
			return !t.Failed()
		})
	}
}

// TestNaiveMatchesExactCompilation: the naïve baseline and exact
// compilation of the translated Fig. 1 network give the same Centre
// marginals.
func TestNaiveMatchesExactCompilation(t *testing.T) {
	for ti, tk := range smallTasks(t) {
		params := []int{tk.k, tk.iter}
		rep, err := core.Run(core.Spec{
			Source: lang.KMedoidsSource, Objects: tk.objs, Space: tk.space,
			Params: params, InitIndices: tk.init, Metric: vec.SquaredEuclidean,
			Targets: []string{"Centre["}, Compile: prob.Options{Strategy: prob.Exact},
		})
		if err != nil {
			t.Fatal(err)
		}
		naive := Naive(context.Background(), tk.objs, tk.space, tk.k, tk.iter, tk.init, vec.SquaredEuclidean)
		if naive.TimedOut || len(naive.Targets) != len(rep.Result.Targets) {
			t.Fatalf("task %d: naïve timed out %t with %d targets, exact has %d",
				ti, naive.TimedOut, len(naive.Targets), len(rep.Result.Targets))
		}
		for _, nb := range naive.Targets {
			eb, ok := rep.Result.Target(nb.Name)
			if !ok || math.Abs(eb.Lower-nb.Lower) > 1e-9 || math.Abs(eb.Upper-nb.Upper) > 1e-9 {
				t.Fatalf("task %d: %s naïve [%g, %g], exact [%g, %g]",
					ti, nb.Name, nb.Lower, nb.Upper, eb.Lower, eb.Upper)
			}
		}
	}
}

func TestNaiveTimeoutIsSound(t *testing.T) {
	tk := smallTasks(t)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Naive(ctx, tk.objs, tk.space, tk.k, tk.iter, tk.init, nil)
	if !res.TimedOut || res.Stats.Branches != 0 {
		t.Fatalf("cancelled run: timed out %t after %d worlds", res.TimedOut, res.Stats.Branches)
	}
	for _, tb := range res.Targets {
		if tb.Lower != 0 || tb.Upper != 1 {
			t.Fatalf("%s = [%g, %g], want [0, 1]", tb.Name, tb.Lower, tb.Upper)
		}
	}
}

func TestBreakTies(t *testing.T) {
	m := [][]bool{
		{true, true, false},
		{true, false, true},
	}
	breakTies2(m) // keep first true per column
	want := [][]bool{
		{true, true, false},
		{false, false, true},
	}
	for i := range want {
		for l := range want[i] {
			if m[i][l] != want[i][l] {
				t.Fatalf("breakTies2[%d][%d] = %t", i, l, m[i][l])
			}
		}
	}
	m2 := [][]bool{{true, true, false}, {false, true, true}}
	breakTies1(m2) // keep first true per row
	if !m2[0][0] || m2[0][1] || m2[1][2] || !m2[1][1] {
		t.Fatalf("breakTies1 = %v", m2)
	}
}

func TestMCLTwoTriangles(t *testing.T) {
	// Two triangles bridged by one edge; MCL separates them.
	w := make([][]float64, 6)
	for i := range w {
		w[i] = make([]float64, 6)
		w[i][i] = 1
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}} {
		w[e[0]][e[1]], w[e[1]][e[0]] = 1, 1
	}
	r := MCL(MCLFromWeights(w), 2, 6)
	// After convergence, node i's attractor — the node that dominates its
	// flow, the argmax of row i — identifies i's cluster; -1 when the row is
	// entirely undefined.
	attractor := func(i int) int {
		best, bestFlow := -1, 0.0
		for j, f := range r.M[i] {
			if f.Kind == event.Scalar && f.S > bestFlow {
				best, bestFlow = j, f.S
			}
		}
		return best
	}
	// Nodes i and j share a cluster when they share an attractor whose flow
	// exceeds 0.05 in both rows.
	same := func(i, j int) bool {
		a := attractor(i)
		if a < 0 || a != attractor(j) {
			return false
		}
		fi, fj := r.M[i][a], r.M[j][a]
		return fi.Kind == event.Scalar && fj.Kind == event.Scalar && fi.S > 0.05 && fj.S > 0.05
	}
	if !same(0, 1) || !same(1, 2) {
		t.Error("first triangle not clustered together")
	}
	if !same(3, 4) || !same(4, 5) {
		t.Error("second triangle not clustered together")
	}
	if same(0, 5) {
		t.Error("triangles merged")
	}
}

func TestMCLStochasticRows(t *testing.T) {
	// After inflation each normalised row of defined entries sums to 1.
	w := [][]float64{{1, 0.5}, {0.5, 1}}
	r := MCL(MCLFromWeights(w), 2, 3)
	for i := range r.M {
		sum := 0.0
		for j := range r.M[i] {
			if r.M[i][j].Kind == event.Scalar {
				sum += r.M[i][j].S
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}
}
