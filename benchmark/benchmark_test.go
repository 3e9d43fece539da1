package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"enframe/internal/benchutil"
	"enframe/internal/server"
	"enframe/internal/stream"
)

// scheduleBytes serialises the first operations of every workload's
// schedule, the served ones against an in-process server so that the stream
// schedule sees a real create reply.
func scheduleBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var out struct {
		Batch  [][4]server.RunRequest
		Hybrid [][3]server.RunRequest
		Run    [callers][]runOp
		Whatif [callers][][2]int
		Push   [callers][][]stream.Delta
	}
	for r := 0; r < 8; r++ {
		out.Batch = append(out.Batch, batchRound(seed, r))
		out.Hybrid = append(out.Hybrid, hybridRound(seed, r))
	}
	tgt := startInProcess()
	defer func() {
		if err := tgt.stop(); err != nil {
			t.Error(err)
		}
	}()
	for c := 0; c < callers; c++ {
		runs := newRunSchedule(seed, c)
		for i := 0; i < 200; i++ {
			out.Run[c] = append(out.Run[c], runs.next())
			a, pass := whatifOp(c, i)
			out.Whatif[c] = append(out.Whatif[c], [2]int{a, pass})
		}
		s, err := openPushSession(tgt, seed, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			_, _, deltas := s.sched.next()
			out.Push[c] = append(out.Push[c], deltas)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSchedulesAreDeterministic(t *testing.T) {
	a, b := scheduleBytes(t, 7), scheduleBytes(t, 7)
	if string(a) != string(b) {
		t.Fatal("the same seed generated different schedules")
	}
	if string(a) == string(scheduleBytes(t, 8)) {
		t.Fatal("different seeds generated the same schedule")
	}
}

func TestTrafficSharesAreExact(t *testing.T) {
	for c := 0; c < callers; c++ {
		s := newRunSchedule(3, c)
		cold, seen := 0, map[int64]bool{}
		for i := 0; i < 1000; i++ {
			op := s.next()
			if op.Hot < 0 {
				cold++
				if seen[op.Req.Data.Seed] {
					t.Fatalf("caller %d: cold data seed %d repeats", c, op.Req.Data.Seed)
				}
				seen[op.Req.Data.Seed] = true
			}
		}
		if cold != 200 {
			t.Errorf("caller %d: %d cold requests in 1000, want exactly 200", c, cold)
		}
	}
	kinds := map[string]int{}
	for i := 0; i < 1000; i++ {
		kinds[pushKind(i)]++
	}
	if kinds[pushProb] != 800 || kinds[pushStruct]+kinds[pushAdvance] != 200 || kinds[pushAdvance] != 20 {
		t.Errorf("push kinds in 1000: %v, want 800 prob, 180 struct, 20 advance", kinds)
	}
}

// TestHotSetSurvivesTheLRU replays the /v1/run schedule of both callers,
// interleaved, against a 64-entry LRU: hot keys must never be evicted, so
// that the misses of serve-run-mixed are its cold fifth and nothing else.
func TestHotSetSurvivesTheLRU(t *testing.T) {
	var sched [callers]*runSchedule
	for c := range sched {
		sched[c] = newRunSchedule(5, c)
	}
	used := map[int64]bool{}
	var order []int64 // most recently used last
	touch := func(seed int64) (hit bool) {
		for i, s := range order {
			if s == seed {
				order = append(order[:i], order[i+1:]...)
				hit = true
				break
			}
		}
		order = append(order, seed)
		if len(order) > 64 {
			order = order[1:]
		}
		return hit
	}
	for i := 0; i < 4000; i++ {
		op := sched[i%callers].next()
		hit := touch(op.Req.Data.Seed)
		if op.Hot >= 0 && used[op.Req.Data.Seed] && !hit {
			t.Fatalf("request %d: hot key %d was evicted", i, op.Hot)
		}
		used[op.Req.Data.Seed] = true
	}
}

func TestPercentileAgreesWithSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 9, 10, 100, 201, 1000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(rng.Int63n(1e9))
		}
		got := latencyMetrics(ds, time.Second)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for name, p := range map[string]float64{"latency_ms_p50": 50, "latency_ms_p90": 90, "latency_ms_p99": 99} {
			// Nearest rank: the smallest sample with at least p% of the
			// samples at or below it.
			k := 0
			for float64(k+1)/float64(n) < p/100-1e-12 {
				k++
			}
			if want := benchutil.Ms(ds[k]); got[name] != want {
				t.Errorf("n=%d %s = %v, sorted-slice oracle %v", n, name, got[name], want)
			}
		}
		if got["ops_per_s"] != float64(n) {
			t.Errorf("n=%d ops_per_s = %v over one second", n, got["ops_per_s"])
		}
	}
}

// TestDryRun drives 20 operations of every workload through the same set-up,
// measurement and checks as a timed run, with the served workloads' server
// inside this process, and requires every answer to be right.
func TestDryRun(t *testing.T) {
	b := &bench{inProcess: true}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p, err := w.plan(b, 1)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := p.setup()
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := inst.close(); err != nil {
					t.Error(err)
				}
			}()
			// A count instead of a clock: exactly 20 operations however
			// fast the machine is, dealt round-robin to the callers.
			for i := 0; i < 20; i++ {
				c := i % inst.callers
				if inst.prepare != nil {
					if err := inst.prepare(c); err != nil {
						t.Fatal(err)
					}
				}
				if err := inst.op(c); err != nil {
					t.Fatal(err)
				}
			}
			if inst.verify != nil {
				if err := inst.verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestReplayLogSkipsRetiredWindows checks the stream oracle against itself:
// the shortened replay must land where a replay of every batch lands.
func TestReplayLogSkipsRetiredWindows(t *testing.T) {
	tgt := startInProcess()
	defer func() {
		if err := tgt.stop(); err != nil {
			t.Error(err)
		}
	}()
	s, err := openPushSession(tgt, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 520; i++ { // ten advances: two of the live windows' admissions are replayed
		if err := s.push(tgt); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.verify(tgt); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderSelfTimes(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.spans = []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 60},
		{Name: "b", Parent: 1, Start: 20, End: 50},
	}
	r.attribute(1, "c", 5)
	if got := r.spans[3]; got.Start != 50 || got.End != 55 || got.Parent != 1 {
		t.Fatalf("attributed span %+v, want [50, 55) under span 1", got)
	}
	want := map[string]time.Duration{"op": 50, "a": 15, "b": 30, "c": 5}
	for _, row := range r.selfTimes(1) {
		if got := time.Duration(math.Round(row.SelfMsPerOp * 1e6)); got != want[row.Name] {
			t.Errorf("self time of %s = %v, want %v", row.Name, got, want[row.Name])
		}
	}
}

// TestContractMatchesCode keeps BENCHMARK.json and the code from drifting
// apart: same workloads, same metrics, same units, directions and bounds.
func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string                     `json:"command"`
		Paths      []string                     `json:"paths"`
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default window is %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d characters), the code has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", contract.PerLayer, perLayer)
	}
}
