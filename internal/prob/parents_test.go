package prob_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"enframe/internal/core"
	"enframe/internal/difftest"
	"enframe/internal/event"
	"enframe/internal/gen"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// mixedNet covers every node kind, with shared subexpressions so fan-out
// exceeds one, and a comparison whose two operands are the same node (one
// parent listed twice in that node's span).
func mixedNet() *network.Net {
	sp := event.NewSpace()
	for i := 0; i < 4; i++ {
		sp.Add(fmt.Sprintf("x%d", i), 0.5)
	}
	b := network.NewBuilder(sp, nil)
	v0, v1 := b.Var(0), b.Var(1)
	c0 := b.CondVal(v0, event.Num(2))
	c1 := b.CondVal(v1, event.Num(3))
	s := b.Sum(c0, c1, b.ConstNum(event.Num(1)))
	g := b.Guard(v0, s)
	cmp := b.Cmp(event.LE, g, c1)
	and := b.And(cmp, b.Not(v1))
	b.Target("t", b.Or(and, b.Var(2)))
	b.Target("u", and)
	p := b.Prod(b.Inv(g), b.Pow(s, 3))
	b.Target("w", b.Cmp(event.EQ, p, p))
	d := b.Dist(b.Sum(b.CondVal(v0, event.Vect([]float64{0, 1})), b.CondVal(v1, event.Vect([]float64{1, 0}))),
		b.ConstNum(event.Vect([]float64{1, 1})))
	b.Target("d", b.Cmp(event.GT, d, b.ConstNum(event.Num(0.5))))
	return b.Build()
}

// goldenBuiltins are the built-in program requests of the golden corpus
// (internal/difftest/golden_test.go goldenCases), keyed as its lines are.
var goldenBuiltins = map[string]server.RunRequest{
	"builtin:kmedoids": {Program: "kmedoids", Data: server.DataSpec{N: 24, Vars: 10}},
	"builtin:kmeans":   {Program: "kmeans", Data: server.DataSpec{N: 24, Vars: 10}, Targets: []string{"InCl["}},
	"builtin:mcl":      {Program: "mcl", Data: server.DataSpec{N: 8, Vars: 10}},
}

// goldenNets grounds every network of the golden corpus, keyed by the
// corpus's case keys; cases that yield no network are left out.
func goldenNets(t *testing.T) map[string]*network.Net {
	f, err := os.Open("../difftest/testdata/golden_bits.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nets := map[string]*network.Net{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, _, _ := strings.Cut(sc.Text(), " ")
		if _, done := nets[key]; done || key == "#" {
			continue
		}
		var net *network.Net
		if s, ok := strings.CutPrefix(key, "gen:"); ok {
			seed, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			net = difftest.GenNet(gen.New(seed))
		} else if req, ok := goldenBuiltins[key]; ok {
			spec, _, err := server.BuildSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.PrepareContext(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			net = art.Net
		} else {
			t.Fatalf("golden corpus case %q has no network here", key)
		}
		nets[key] = net
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return nets
}

// TestParentIndexTransposesKids: the parent index a compilation builds is
// exactly the transpose of the network's child spans — each parent listed
// once per edge, in increasing id order — over a mixed-kind net and every
// network of the golden corpus.
func TestParentIndexTransposesKids(t *testing.T) {
	nets := goldenNets(t)
	if len(nets) < 300 {
		t.Fatalf("golden corpus yields %d networks, want ≥ 300", len(nets))
	}
	mixed := mixedNet()
	if kinds := mixed.KindCounts(); len(kinds) != int(network.KDist)+1 {
		t.Fatalf("mixed net covers kinds %v, want all %d", kinds, network.KDist+1)
	}
	nets["mixed"] = mixed
	for name, n := range nets {
		if n == nil {
			continue
		}
		off, ids := prob.ParentIndex(n)
		nn := n.NumNodes()
		if len(off) != nn+1 || off[0] != 0 || int(off[nn]) != len(ids) || len(ids) != len(n.Kids) {
			t.Fatalf("%s: %d offsets ending at %d over %d parents for %d nodes and %d edges",
				name, len(off), off[len(off)-1], len(ids), nn, len(n.Kids))
		}
		want := make([][]network.NodeID, nn)
		for id := range nn {
			for _, k := range n.KidsOf(network.NodeID(id)) {
				want[k] = append(want[k], network.NodeID(id))
			}
		}
		for id := range nn {
			if off[id] > off[id+1] {
				t.Fatalf("%s: node %d: offsets not monotone", name, id)
			}
			if got := ids[off[id]:off[id+1]]; !slices.Equal(got, want[id]) {
				t.Errorf("%s: node %d parents %v, transpose of Kids gives %v", name, id, got, want[id])
			}
		}
	}
}

// BenchmarkParentIndex times the per-compile parent-index pass on the
// batch-exact network (kmedoids n=24 vars=10 iter=3) and the serve-run-mixed
// one (n=16 vars=8 iter=2).
func BenchmarkParentIndex(b *testing.B) {
	for _, sh := range []struct {
		name          string
		n, vars, iter int
	}{{"batch", 24, 10, 3}, {"serve", 16, 8, 2}} {
		spec, _, err := server.BuildSpec(server.RunRequest{
			Program: "kmedoids",
			Data:    server.DataSpec{N: sh.n, Scheme: "positive", Vars: sh.vars, L: 8, M: 12, Group: 4, Seed: 1},
			Params:  server.ParamSpec{K: 2, Iter: sh.iter},
		})
		if err != nil {
			b.Fatal(err)
		}
		art, err := core.PrepareContext(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/nodes=%d/edges=%d", sh.name, art.Net.NumNodes(), len(art.Net.Kids)), func(b *testing.B) {
			for range b.N {
				prob.ParentIndex(art.Net)
			}
		})
	}
}

// wideNet builds, directly with network.Builder, a network over 100
// referenced variables (of a 130-variable space), so FanoutOrder's variable
// sets span two words: a seeded random DAG of ∧, ∨ and ¬ over the leaves,
// whose fan-out differs from variable to variable and ties between some.
func wideNet() *network.Net {
	sp := event.NewSpace()
	for i := range 130 {
		sp.Add(fmt.Sprintf("x%d", i), 0.5)
	}
	b := network.NewBuilder(sp, nil)
	rng := rand.New(rand.NewSource(7))
	var nodes []network.NodeID
	for i := range 100 {
		nodes = append(nodes, b.Var(event.VarID(i*7%130)))
	}
	pick := func() network.NodeID {
		// Favour recent nodes, so the DAG grows deep as well as wide.
		return nodes[len(nodes)-1-rng.Intn(min(len(nodes), 60))]
	}
	for range 600 {
		switch rng.Intn(3) {
		case 0:
			nodes = append(nodes, b.And(pick(), pick()))
		case 1:
			nodes = append(nodes, b.Or(pick(), pick(), pick()))
		case 2:
			nodes = append(nodes, b.Not(pick()))
		}
	}
	return b.Build() // no targets: every node is kept
}

// TestFanoutOrderMatchesReference holds FanoutOrder's one forward pass to the
// reference — one upward search per variable over the parent index — count
// for count and in the resulting order: on every network of the golden
// corpus, on the three builtins at the benchmark's shapes, and on a network
// whose variable sets span two words.
func TestFanoutOrderMatchesReference(t *testing.T) {
	nets := goldenNets(t)
	nets["mixed"] = mixedNet()
	wide := wideNet()
	refs := 0
	for _, id := range wide.VarNode {
		if id != network.NoNode {
			refs++
		}
	}
	if refs <= 64 {
		t.Fatalf("wide net references %d variables, want > 64", refs)
	}
	nets["wide"] = wide
	for _, req := range []server.RunRequest{
		{Program: "kmedoids", Data: server.DataSpec{N: 24, Scheme: "positive", Vars: 10, L: 8, M: 12, Group: 4, Seed: 3}, Params: server.ParamSpec{K: 2, Iter: 3}},
		{Program: "kmedoids", Data: server.DataSpec{N: 24, Scheme: "mutex", Vars: 16, L: 8, M: 12, Group: 4, Seed: 3}, Params: server.ParamSpec{K: 2, Iter: 3}},
		{Program: "kmedoids", Data: server.DataSpec{N: 16, Scheme: "positive", Vars: 8, L: 8, M: 12, Group: 4, Seed: 3}, Params: server.ParamSpec{K: 2, Iter: 2}},
		{Program: "kmeans", Data: server.DataSpec{N: 24, Scheme: "positive", Vars: 10, L: 8, M: 12, Group: 4, Seed: 3}, Params: server.ParamSpec{K: 2, Iter: 3}, Targets: []string{"InCl["}},
		{Program: "mcl", Data: server.DataSpec{N: 8, Vars: 10, Seed: 3}},
	} {
		spec, _, err := server.BuildSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.PrepareContext(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("%s/%s/n=%d/vars=%d", req.Program, req.Data.Scheme, req.Data.N, req.Data.Vars)] = art.Net
	}
	for name, n := range nets {
		if n == nil {
			continue
		}
		wantOrder, wantCounts := prob.FanoutRef(n)
		if got := prob.FanoutCounts(n); !slices.Equal(got, wantCounts) {
			t.Errorf("%s: influence counts %v, reference %v", name, got, wantCounts)
		}
		if got := prob.Order(n, prob.FanoutOrder); !slices.Equal(got, wantOrder) {
			t.Errorf("%s: FanoutOrder %v, reference %v", name, got, wantOrder)
		}
	}
}
