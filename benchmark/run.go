package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"enframe/internal/benchutil"
)

// timedResult is one workload's measured window with tracing off.
type timedResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"window_s"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]metric  `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// window is the outcome of one measured window.
type window struct {
	elapsed time.Duration
	// busy is the time a caller spent inside operations, averaged over the
	// callers: the window less whatever the generator took between them.
	busy      time.Duration
	latencies []time.Duration // successful operations only
	attempted int
	errors    []string // the first few failures, for the report
	// opPeaks, for an in-process workload, is this process's VmHWM across
	// each operation, in MiB.
	opPeaks []float64
}

// measure drives the instance's closed-loop callers for the given time: each
// caller issues its next operation as soon as the previous one has answered,
// and stops issuing once the window has passed.
func measure(inst *instance, d time.Duration) window {
	type callerLog struct {
		latencies []time.Duration
		busy      time.Duration
		attempted int
		errors    []string
		peaks     []float64
	}
	logs := make([]callerLog, inst.callers)
	// The in-process workloads have one caller, so the process's high-water
	// mark can be restarted before every operation and read after it.
	inProcess := inst.rssPID == 0
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := &logs[c]
			for {
				if !time.Now().Before(deadline) {
					return
				}
				var err error
				if inst.prepare != nil {
					err = inst.prepare(c)
				}
				if inProcess && err == nil {
					err = resetPeakRSS()
				}
				t0 := time.Now()
				if err == nil {
					err = inst.op(c)
				}
				lat := time.Since(t0)
				log.busy += lat
				log.attempted++
				if inProcess {
					if mib, perr := peakRSSMiB(0); perr == nil {
						log.peaks = append(log.peaks, mib)
					} else if err == nil {
						err = perr
					}
				}
				if err == nil {
					log.latencies = append(log.latencies, lat)
				} else if len(log.errors) < 3 {
					log.errors = append(log.errors, err.Error())
				}
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, log := range logs {
		w.latencies = append(w.latencies, log.latencies...)
		w.busy += log.busy / time.Duration(inst.callers)
		w.attempted += log.attempted
		w.errors = append(w.errors, log.errors...)
		w.opPeaks = append(w.opPeaks, log.peaks...)
	}
	return w
}

// runTimed sets a workload up, measures one window with tracing off, and
// checks every answer. An error means the run could not be made at all; a
// run that was made but answered wrongly comes back with Correct false.
func runTimed(b *bench, w workload, seed int64, d time.Duration) (*timedResult, error) {
	p, err := w.plan(b, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var (
		inst   *instance
		setups []float64
	)
	for r := 0; r < p.repeats; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		t0 := time.Now()
		inst, err = p.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	win := measure(inst, d)
	res := &timedResult{
		Workload:  w.name,
		Seed:      seed,
		Seconds:   win.elapsed.Seconds(),
		Attempted: win.attempted,
		Failed:    win.attempted - len(win.latencies),
		Errors:    win.errors,
	}
	values := latencyMetrics(win.latencies, win.busy)
	values["setup_s"] = benchutil.Median(setups)
	// A child's peak is its VmHWM after the window. This process also ran
	// the gate and the generator, and the peak of a small Go heap hangs on
	// where the collector's cycles happen to fall (a fifth from run to run),
	// so its figure is the peak across the median operation.
	rss, rssErr := benchutil.Median(win.opPeaks), error(nil)
	if inst.rssPID != 0 {
		rss, rssErr = peakRSSMiB(inst.rssPID)
	}
	values["peak_rss_mb"] = rss
	if inst.verify != nil {
		if err := inst.verify(); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rssErr != nil {
		return nil, fmt.Errorf("%s: peak RSS: %w", w.name, rssErr)
	}
	res.Correct = len(res.Errors) == 0 && res.Attempted > 0
	res.Metrics = withUnits(endToEnd, values)
	// p99 is a diagnostic only, and only where ten samples lie beyond it.
	if len(win.latencies) >= 1000 {
		res.Diagnostics = map[string]float64{"latency_ms_p99": values["latency_ms_p99"]}
	}
	return res, nil
}

func (r *timedResult) print() {
	fmt.Printf("%s  seed %d  window %.1f s  ops %d  failed %d\n", r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, d := range endToEnd {
		fmt.Printf("  %-16s %12.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if p99, ok := r.Diagnostics["latency_ms_p99"]; ok {
		fmt.Printf("  %-16s %12.4f ms (diagnostic, not gated)\n", "latency_ms_p99", p99)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "  WRONG: %s\n", e)
	}
}
