// Command benchmark is the repository's one measurement instrument: five
// named workloads, five end-to-end metrics on each, and a separate traced
// pass that attributes every operation to the packages it runs through.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory says how to run it and how to read what it writes.
//
//	go run ./benchmark -seed 1                          every workload, tracing off
//	go run ./benchmark -seed 1 -trace 1                 every workload, traced pass
//	go run ./benchmark -seed 1 -repeat 2                repeatability self-check
//	go run ./benchmark --workload batch-exact --seed 7 --seconds 12 --trace 0
//
// With -workload the last line of standard output is the result object of
// the contract: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"enframe/internal/benchutil"
)

// defaultSeconds is the measured window of every workload, the run_seconds
// of BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the contract's result line (default: all five)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", defaultSeconds, "measured window per workload, in seconds")
		traced  = flag.Int("trace", 0, "0: timed run with tracing off; 1: traced pass for the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and check that the runs agree within the bounds")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced, repeat int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 || repeat < 1 || traced < 0 || traced > 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1, -trace 0 or 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	b := &bench{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	selected := workloads
	if name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	env := readEnvironment(root)
	window := time.Duration(seconds) * time.Second

	sets := make([]resultSet, repeat)
	for r := range sets {
		// Alternate the order, so that a drift over the run does not always
		// land on the same workloads.
		order := append([]workload(nil), selected...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		set := resultSet{Environment: env, Seed: seed}
		for _, w := range order {
			if traced == 1 {
				res, err := runTraced(b, w, seed)
				if err != nil {
					return err
				}
				res.print()
				set.Layers = append(set.Layers, res)
			} else {
				res, err := runTimed(b, w, seed, window)
				if err != nil {
					return err
				}
				res.print()
				set.Timed = append(set.Timed, res)
			}
		}
		sets[r] = set
	}

	last := sets[len(sets)-1]
	file := "result.json"
	if traced == 1 {
		file = "layers.json"
	}
	if err := benchutil.WriteJSON(filepath.Join(b.outDir, file), last); err != nil {
		return err
	}
	ok := last.correct()
	if repeat > 1 && !compareSets(sets[0], last) {
		ok = false
	}
	if name != "" {
		line, err := json.Marshal(last.contractLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("wrong answers or runs that disagree; see above")
	}
	return nil
}

// resultSet is one pass over the selected workloads, as result.json and
// layers.json hold it.
type resultSet struct {
	Environment environment     `json:"environment"`
	Seed        int64           `json:"seed"`
	Timed       []*timedResult  `json:"workloads,omitempty"`
	Layers      []*tracedResult `json:"layers,omitempty"`
}

func (s resultSet) correct() bool {
	for _, r := range s.Timed {
		if !r.Correct {
			return false
		}
	}
	for _, r := range s.Layers {
		if !r.Correct {
			return false
		}
	}
	return true
}

// contractLine is the result object of a single-workload run.
func (s resultSet) contractLine() map[string]any {
	if len(s.Layers) > 0 {
		r := s.Layers[0]
		return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
	}
	r := s.Timed[0]
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// compareSets is the repeatability self-check: two runs of the same code
// must agree on every end-to-end metric within its bound, and the traced
// pass's work counters of the single-worker workloads must repeat exactly.
func compareSets(a, b resultSet) bool {
	ok := true
	fmt.Println("\nrepeatability: first run, last run, relative difference, bound")
	for _, ra := range a.Timed {
		for _, rb := range b.Timed {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				diff := math.Abs(va-vb) / math.Min(va, vb)
				verdict := "ok"
				if diff > d.Bound {
					verdict, ok = "DISAGREE", false
				}
				fmt.Printf("  %-18s %-16s %12.4f %12.4f %6.1f%% %5.0f%%  %s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
			}
		}
	}
	for _, ra := range a.Layers {
		for _, rb := range b.Layers {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, name := range exactCounters {
				va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
				if va == 0 && vb == 0 {
					continue // a layer the workload never enters
				}
				verdict := "repeats exactly"
				switch {
				case !ra.Deterministic:
					verdict = "not deterministic (workers = 2), not checked"
				case va != vb:
					verdict, ok = "DIFFERS", false
				}
				fmt.Printf("  %-18s %-28s %14.4f %14.4f  %s\n", ra.Workload, name, va, vb, verdict)
			}
		}
	}
	return ok
}
