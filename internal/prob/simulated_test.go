package prob_test

import (
	"context"
	"fmt"
	"testing"

	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

// TestSimulatedCountersPinned pins the work counters of simulated hybrid-d
// runs (Fig. 9's mode) on a fixed k-medoids network: Figure 1's program,
// translated. The branch, job, assignment and prune literals were recorded
// from the single-thread simulator with its own list scheduler that the
// distributed runner's one-goroutine mode replaced; equal counters mean the
// replacement explores the same jobs in the same order under the same
// backpressure. The mask-update literals count work on the network itself
// and were re-recorded when it changed, last when the builder began folding
// dist over two ⊗ nodes.
func TestSimulatedCountersPinned(t *testing.T) {
	objs, space, err := lineage.Attach(data.Points(40, 1),
		lineage.Config{Scheme: lineage.Positive, NumVars: 20, L: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	art, err := core.PrepareContext(context.Background(), core.Spec{
		Source: lang.KMedoidsSource, Objects: objs, Space: space,
		Params: []int{2, 3}, InitIndices: []int{0, 1}, Targets: []string{"Centre["},
	})
	if err != nil {
		t.Fatal(err)
	}
	net := art.Net
	for _, want := range []struct {
		workers, depth                                         int
		branches, jobs, assignments, maskUpdates, budgetPrunes int64
	}{
		{2, 3, 137, 18, 89, 966825, 32},
		{4, 3, 168, 27, 105, 1081955, 40},
		{16, 3, 168, 27, 105, 1081955, 40},
		{2, 6, 102, 9, 71, 799436, 24},
		{4, 6, 119, 14, 79, 842363, 29},
		{16, 6, 119, 14, 79, 842363, 29},
	} {
		t.Run(fmt.Sprintf("W=%d,d=%d", want.workers, want.depth), func(t *testing.T) {
			res, err := prob.Compile(net, prob.Options{
				Strategy: prob.Hybrid, Epsilon: 0.1,
				Workers: want.workers, JobDepth: want.depth, SimulateWorkers: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			got := [5]int64{st.Branches, st.Jobs, st.Assignments, st.MaskUpdates, st.BudgetPrunes}
			exp := [5]int64{want.branches, want.jobs, want.assignments, want.maskUpdates, want.budgetPrunes}
			if got != exp {
				t.Errorf("branches/jobs/assignments/mask_updates/budget_prunes = %v, want %v", got, exp)
			}
			if st.SimulatedMakespan <= 0 || len(st.PerWorker) != want.workers {
				t.Errorf("makespan %v over %d virtual workers, want > 0 over %d",
					st.SimulatedMakespan, len(st.PerWorker), want.workers)
			}
		})
	}
}
