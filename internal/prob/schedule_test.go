package prob

import (
	"reflect"
	"testing"
	"time"
)

// TestListSchedule places hand-built job logs on virtual workers and checks
// the makespans and placements against values worked out by hand.
func TestListSchedule(t *testing.T) {
	ms := time.Millisecond
	// chain: the root forks three children one level down; with enough
	// workers only the longest root→child path counts.
	chain := []jobRecord{
		{parent: -1, dur: 4 * ms, branches: 10},
		{parent: 0, dur: 3 * ms, branches: 5},
		{parent: 0, dur: 2 * ms, branches: 4},
		{parent: 0, dur: 6 * ms, branches: 7},
	}
	for _, tc := range []struct {
		name     string
		log      []jobRecord
		workers  int
		makespan time.Duration
		per      []WorkerStats
	}{
		{
			// One worker runs everything back to back: the sum of durations.
			name: "W=1 sums durations", log: chain, workers: 1, makespan: 15 * ms,
			per: []WorkerStats{{Jobs: 4, Branches: 26, Busy: 15 * ms}},
		},
		{
			// Every child starts when the root ends (4); the critical path is
			// root + longest child = 4 + 6. Each child takes the lowest-index
			// idle worker.
			name: "W>=jobs is the critical path", log: chain, workers: 8, makespan: 10 * ms,
			per: []WorkerStats{
				{Jobs: 1, Branches: 10, Busy: 4 * ms},
				{Jobs: 1, Branches: 5, Busy: 3 * ms},
				{Jobs: 1, Branches: 4, Busy: 2 * ms},
				{Jobs: 1, Branches: 7, Busy: 6 * ms},
				{}, {}, {}, {},
			},
		},
		{
			// W=2: root on w0 [0,4]; child 1 on w1 but waits for the root,
			// [4,7]; child 2 on w0 [4,6]; child 3 on w0 (free at 6) [6,12].
			name: "W=2 waits for the parent", log: chain, workers: 2, makespan: 12 * ms,
			per: []WorkerStats{
				{Jobs: 3, Branches: 21, Busy: 12 * ms},
				{Jobs: 1, Branches: 5, Busy: 3 * ms},
			},
		},
		{
			// A grandchild cannot start before its parent (job 1) ends, even
			// with a worker idle since t=0: 5 + 1 + 2.
			name: "child after parent", workers: 3, makespan: 8 * ms,
			log: []jobRecord{
				{parent: -1, dur: 5 * ms},
				{parent: 0, dur: 1 * ms},
				{parent: 1, dur: 2 * ms},
			},
			per: []WorkerStats{
				{Jobs: 1, Busy: 5 * ms},
				{Jobs: 1, Busy: 1 * ms},
				{Jobs: 1, Busy: 2 * ms},
			},
		},
		{
			// Two jobs without a parent start at 0 on workers 0 and 1; the
			// third finds both free at 2 and goes to worker 0.
			name: "ties go to the lowest index", workers: 2, makespan: 3 * ms,
			log: []jobRecord{
				{parent: -1, dur: 2 * ms},
				{parent: -1, dur: 2 * ms},
				{parent: -1, dur: 1 * ms},
			},
			per: []WorkerStats{
				{Jobs: 2, Busy: 3 * ms},
				{Jobs: 1, Busy: 2 * ms},
			},
		},
		{
			name: "empty log", workers: 2, makespan: 0,
			per: []WorkerStats{{}, {}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			makespan, per := listSchedule(tc.log, tc.workers)
			if makespan != tc.makespan {
				t.Errorf("makespan %v, want %v", makespan, tc.makespan)
			}
			if !reflect.DeepEqual(per, tc.per) {
				t.Errorf("placement %+v, want %+v", per, tc.per)
			}
		})
	}
}
