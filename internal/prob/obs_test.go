package prob

import (
	"bytes"
	"strings"
	"testing"

	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/obs"
)

// obsNet builds a small network with enough variables that compilation
// actually branches: target = majority-ish OR of ANDs over six variables.
func obsNet(t *testing.T) *network.Net {
	t.Helper()
	space := event.NewSpace()
	xs := make([]event.VarID, 6)
	for i := range xs {
		xs[i] = space.Add("x", 0.3+0.1*float64(i%3))
	}
	b := network.NewBuilder(space, nil)
	var ors []network.NodeID
	for i := 0; i+1 < len(xs); i++ {
		ors = append(ors, b.And(b.Var(xs[i]), b.Var(xs[i+1])))
	}
	b.Target("t0", b.Or(ors...))
	b.Target("t1", b.And(b.Var(xs[0]), b.Not(b.Var(xs[5]))))
	return b.Build()
}

func TestCompileTraced(t *testing.T) {
	net := obsNet(t)
	tr := obs.New("test")
	res, err := Compile(net, Options{Strategy: Hybrid, Epsilon: 0.05, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	tree := tr.Tree()
	for _, want := range []string{"compile", "order", "init", "explore"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing span %q:\n%s", want, tree)
		}
	}
	st := res.Stats
	if st.MaxDepth <= 0 {
		t.Errorf("MaxDepth = %d, want > 0", st.MaxDepth)
	}
	if st.Timings.Explore <= 0 {
		t.Errorf("Timings.Explore = %v, want > 0", st.Timings.Explore)
	}
	if got := tr.Metrics().Counter("prob.branches").Value(); got != st.Branches {
		t.Errorf("metrics prob.branches = %d, stats say %d", got, st.Branches)
	}
	if st.BudgetPrunes > 0 {
		pts, _ := tr.Timeline("budget.spend", 1).Points()
		if len(pts) == 0 {
			t.Error("budget prunes happened but the budget.spend timeline is empty")
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"compile"`) {
		t.Error("chrome export missing compile span")
	}
}

func TestCompileTracedDistributed(t *testing.T) {
	net := obsNet(t)
	tr := obs.New("test")
	res, err := Compile(net, Options{
		Strategy: Exact, Workers: 4, JobDepth: 1, Obs: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	st := res.Stats
	if len(st.PerWorker) != 4 {
		t.Fatalf("PerWorker has %d entries, want 4", len(st.PerWorker))
	}
	var jobs, branches int64
	for _, ws := range st.PerWorker {
		jobs += ws.Jobs
		branches += ws.Branches
	}
	if jobs != st.Jobs {
		t.Errorf("per-worker jobs sum %d != total %d", jobs, st.Jobs)
	}
	if branches != st.Branches {
		t.Errorf("per-worker branches sum %d != total %d", branches, st.Branches)
	}
	tree := tr.Tree()
	if !strings.Contains(tree, "distribute") {
		t.Errorf("trace tree missing distribute span:\n%s", tree)
	}
	if got := strings.Count(tree, "─ worker "); got != 4 {
		t.Errorf("trace tree has %d worker spans, want 4:\n%s", got, tree)
	}
}

func TestCompileTracedSimulated(t *testing.T) {
	net := obsNet(t)
	tr := obs.New("test")
	res, err := Compile(net, Options{
		Strategy: Exact, Workers: 3, JobDepth: 1, SimulateWorkers: true, Obs: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	st := res.Stats
	if len(st.PerWorker) != 3 {
		t.Fatalf("PerWorker has %d entries, want 3", len(st.PerWorker))
	}
	var jobs, branches int64
	var maxBusy int64
	for _, ws := range st.PerWorker {
		jobs += ws.Jobs
		branches += ws.Branches
		if int64(ws.Busy) > maxBusy {
			maxBusy = int64(ws.Busy)
		}
	}
	if jobs != st.Jobs {
		t.Errorf("per-worker jobs sum %d != total %d", jobs, st.Jobs)
	}
	if branches != st.Branches {
		t.Errorf("per-worker branches sum %d != total %d", branches, st.Branches)
	}
	// The virtual makespan is at least the busiest worker's busy time.
	if int64(st.SimulatedMakespan) < maxBusy {
		t.Errorf("makespan %dns < busiest worker %dns", int64(st.SimulatedMakespan), maxBusy)
	}
}

// TestCompileUntracedStatsStillFilled ensures stage timings and depth are
// recorded even with observability off (they are plain Stats fields).
func TestCompileUntracedStatsStillFilled(t *testing.T) {
	net := obsNet(t)
	res, err := Compile(net, Options{Strategy: Exact})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MaxDepth <= 0 || st.Timings.Explore <= 0 {
		t.Errorf("untraced run lost stats: depth=%d explore=%v", st.MaxDepth, st.Timings.Explore)
	}
}
