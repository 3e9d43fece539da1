package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"enframe/internal/benchutil"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median by which the metric may worsen; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a caller of the system sees, the same on every
// workload. Failed, refused and wrong-answer operations are not a sixth
// metric here: the result line reports them as "failed" out of "attempted",
// and any failed operation makes the run incorrect.
var endToEnd = []metricDef{
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics of single layers, measured by the traced pass
// from outside each package's public entry points.
var perLayer = []metricDef{
	{Name: "lang.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "lang.tokens", Unit: "count", Better: "lower"},
	{Name: "translate.emit_ms", Unit: "ms", Better: "lower"},
	{Name: "network.build_ms", Unit: "ms", Better: "lower"},
	{Name: "network.nodes", Unit: "count", Better: "lower"},
	{Name: "network.hashcons_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "prob.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "prob.order_ms", Unit: "ms", Better: "lower"},
	{Name: "prob.init_ms", Unit: "ms", Better: "lower"},
	{Name: "prob.explore_ms", Unit: "ms", Better: "lower"},
	{Name: "prob.branches", Unit: "count", Better: "lower"},
	{Name: "prob.mask_updates_per_branch", Unit: "count", Better: "lower"},
	{Name: "prob.budget_prunes", Unit: "count", Better: "higher"},
	{Name: "prob.jobs", Unit: "count", Better: "lower"},
	{Name: "prob.worker_utilization", Unit: "ratio", Better: "higher"},
	{Name: "circuit.trace_ms", Unit: "ms", Better: "lower"},
	{Name: "circuit.nodes", Unit: "count", Better: "lower"},
	{Name: "circuit.eval_us_per_point", Unit: "us", Better: "lower"},
	{Name: "core.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.buildspec_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.http_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.apply_prob_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.apply_struct_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.query_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.regrounds", Unit: "count", Better: "lower"},
	{Name: "stream.replays", Unit: "count", Better: "lower"},
	{Name: "stream.retraces", Unit: "count", Better: "lower"},
	{Name: "trace.op_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
}

// metric is one measured value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs measured values with the units of their definitions; a
// definition without a value reports 0 (a layer the workload never enters).
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// latencyMetrics summarises the latencies of the successful operations of
// one measured window. busy is the time a caller spent inside operations; for
// callers that never pause between operations it is the window itself.
func latencyMetrics(samples []time.Duration, busy time.Duration) map[string]float64 {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return map[string]float64{
		"latency_ms_p50": benchutil.Percentile(sorted, 50),
		"latency_ms_p90": benchutil.Percentile(sorted, 90),
		"latency_ms_p99": benchutil.Percentile(sorted, 99),
		"ops_per_s":      float64(len(sorted)) / busy.Seconds(),
	}
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process; pid 0 is this
// process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// resetPeakRSS restarts this process's VmHWM from its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// environment is stamped into every result file: a number means little
// without the machine and the load it was measured under.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
}

func readEnvironment(root string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		LoadAvg1:   -1,
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest stamp there.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				env.LoadAvg1 = v
			}
		}
	}
	return env
}
