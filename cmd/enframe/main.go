// Command enframe runs a user program (the Python fragment of §2) over
// probabilistic data and prints the probability of each target event.
//
// Example:
//
//	enframe -program kmedoids -n 16 -scheme positive -vars 12 -k 2 -iter 3 \
//	        -targets 'Centre[' -strategy hybrid -eps 0.1
//
// The built-in programs are the paper's Figures 1–3; -program may also name
// a file containing a custom program. Input data is the synthetic
// energy-network sensor feed (internal/data) with the selected correlation
// scheme attached; -dump-events prints the event network the program grounds
// to, one line per node, instead of compiling it.
//
// Observability (see OBSERVABILITY.md): -trace prints the pipeline span
// tree (lex → parse → check → translate → ground → order → compile →
// distribute) with per-worker utilisation; -trace-out FILE writes Chrome
// trace_event JSON loadable in about:tracing or ui.perfetto.dev; -metrics
// dumps the metrics registry (hash-cons hit rate, decision-tree counters);
// -json emits one machine-readable JSON object on stdout; -pprof ADDR
// serves net/http/pprof.
//
// The fuzz subcommand replays the differential verification harness on a
// seed range:
//
//	enframe fuzz -seed 1 -n 500
//
// Each seed deterministically generates a random program and input data
// (internal/gen) and cross-checks the per-world oracle, the exact pipeline,
// the reference evaluator, the approximation strategies, and the
// distributed runner (internal/difftest). A failure prints the seed that
// reproduces it with `enframe fuzz -seed N -n 1`.
//
// The serve subcommand starts the long-lived HTTP serving layer
// (internal/server, see SERVING.md):
//
//	enframe serve -addr 127.0.0.1:8080 -inflight 64
//
// Invocations without a subcommand dispatch to run, so the historical
// flags-only form keeps working.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"strings"
	"time"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/obs"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// runFlags is the flag set of the (default) run subcommand.
var runFlags = flag.NewFlagSet("run", flag.ExitOnError)

var (
	programFlag = runFlags.String("program", "kmedoids", "builtin program (kmedoids, kmeans, mcl) or a file path")
	nFlag       = runFlags.Int("n", 12, "number of data points")
	schemeFlag  = runFlags.String("scheme", "positive", "correlation scheme: independent, positive, mutex, conditional")
	varsFlag    = runFlags.Int("vars", 10, "variable pool size for the positive scheme")
	lFlag       = runFlags.Int("l", 8, "literals per event (positive scheme)")
	mFlag       = runFlags.Int("m", 12, "mutex set cardinality")
	certainFlag = runFlags.Float64("certain", 0, "fraction of certain data points")
	groupFlag   = runFlags.Int("group", 4, "points per lineage group")
	kFlag       = runFlags.Int("k", 2, "number of clusters")
	iterFlag    = runFlags.Int("iter", 3, "number of iterations")
	rFlag       = runFlags.Int("r", 2, "Hadamard power (mcl)")
	targetsFlag = runFlags.String("targets", "", "comma-separated target symbols or prefixes ending in [ (default: the program's result, e.g. Centre[ for kmedoids)")
	stratFlag   = new(prob.Strategy) // -strategy: a TextVar, registered by init
	epsFlag     = runFlags.Float64("eps", 0.1, "absolute approximation error ε")
	workersFlag = runFlags.Int("workers", 1, "distributed workers (>1 enables distribution)")
	jobFlag     = runFlags.Int("job", 3, "distributed job size d")
	timeoutFlag = runFlags.Duration("timeout", time.Minute, "compilation timeout")
	seedFlag    = runFlags.Int64("seed", 1, "random seed")
	dumpFlag    = runFlags.Bool("dump-events", false, "print the event network the program grounds to and exit")
	topFlag     = runFlags.Int("top", 20, "print at most this many targets (0 = all)")

	traceFlag    = runFlags.Bool("trace", false, "print the pipeline span tree after the run")
	traceOutFlag = runFlags.String("trace-out", "", "write a Chrome trace_event JSON file (open in about:tracing or ui.perfetto.dev)")
	metricsFlag  = runFlags.Bool("metrics", false, "print the metrics registry after the run")
	jsonFlag     = runFlags.Bool("json", false, "emit one JSON object on stdout instead of the table")
	pprofFlag    = runFlags.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

	remoteFlag         = runFlags.String("remote", "", "comma-separated enframe worker addresses; ships compilation jobs to them (see 'enframe worker')")
	remoteFallbackFlag = runFlags.Bool("remote-fallback", false, "with -remote: fall back to in-process execution if the worker plane fails")
)

func init() {
	runFlags.TextVar(stratFlag, "strategy", prob.Exact, "exact, eager, lazy, or hybrid")
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: enframe [run] [flags]   compile a program over probabilistic data (default)
       enframe fuzz [flags]    replay the differential verification harness
       enframe serve [flags]   start the HTTP serving layer (SERVING.md)
       enframe route [flags]   start the shard router for a serving fleet (SERVING.md)
       enframe worker [flags]  start a distributed compilation worker (DESIGN.md)
       enframe stream [flags]  drive a /v1/stream session on a running server (SERVING.md)

Run 'enframe <subcommand> -h' for subcommand flags.`)
}

func main() {
	// Subcommand dispatch: a leading non-flag argument names the
	// subcommand; the historical flags-only invocation dispatches to run.
	// Every subcommand owns its flag set (fuzz's -seed is the first
	// generator seed, not the data seed).
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = runCmd(args)
	case "fuzz":
		err = runFuzz(args)
	case "serve":
		err = runServe(args)
	case "route":
		err = runRoute(args)
	case "worker":
		err = runWorker(args)
	case "stream":
		err = runStream(args)
	case "help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "enframe: unknown subcommand %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "enframe:", err)
		os.Exit(1)
	}
}

// runCmd parses the run flag set and executes one pipeline run.
func runCmd(args []string) error {
	if err := runFlags.Parse(args); err != nil {
		return err
	}
	if runFlags.NArg() > 0 {
		return fmt.Errorf("run: unexpected argument %q", runFlags.Arg(0))
	}
	return run()
}

// validateFlags rejects nonsensical flag combinations up front, with the
// offending flag named, instead of letting them misbehave downstream
// (e.g. -workers 0 silently running sequentially, or -eps 0 with an
// approximation strategy never converging).
func validateFlags() error {
	if *workersFlag < 1 {
		return fmt.Errorf("flag -workers: must be ≥ 1 (got %d)", *workersFlag)
	}
	if *jobFlag < 1 {
		return fmt.Errorf("flag -job: must be ≥ 1 (got %d)", *jobFlag)
	}
	if *stratFlag != prob.Exact && *epsFlag <= 0 {
		return fmt.Errorf("flag -eps: must be > 0 with strategy %q (got %g)", *stratFlag, *epsFlag)
	}
	if *topFlag < 0 {
		return fmt.Errorf("flag -top: must be ≥ 0 (got %d)", *topFlag)
	}
	if *nFlag < 1 {
		return fmt.Errorf("flag -n: must be ≥ 1 (got %d)", *nFlag)
	}
	if *kFlag < 1 {
		return fmt.Errorf("flag -k: must be ≥ 1 (got %d)", *kFlag)
	}
	if *iterFlag < 1 {
		return fmt.Errorf("flag -iter: must be ≥ 1 (got %d)", *iterFlag)
	}
	if *timeoutFlag < 0 {
		return fmt.Errorf("flag -timeout: must be ≥ 0 (got %v)", *timeoutFlag)
	}
	if *remoteFallbackFlag && *remoteFlag == "" {
		return fmt.Errorf("flag -remote-fallback: requires -remote")
	}
	if *remoteFlag != "" && *dumpFlag {
		return fmt.Errorf("flag -remote: incompatible with -dump-events")
	}
	return nil
}

func run() error {
	if err := validateFlags(); err != nil {
		return err
	}
	if *pprofFlag != "" {
		go func() {
			if err := http.ListenAndServe(*pprofFlag, nil); err != nil {
				fmt.Fprintln(os.Stderr, "enframe: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "enframe: pprof listening on http://%s/debug/pprof/\n", *pprofFlag)
	}

	var tr *obs.Trace
	if *traceFlag || *traceOutFlag != "" || *metricsFlag {
		tr = obs.New("enframe")
	}

	req, err := runRequest()
	if err != nil {
		return err
	}
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		return err
	}
	spec.Compile = req.CompileOptions()
	spec.Compile.Obs = tr
	if *dumpFlag {
		return dumpEvents(os.Stdout, spec)
	}

	var rep *core.Report
	if *remoteFlag != "" {
		rep, err = runRemote(spec, key, req)
	} else {
		rep, err = core.Run(spec)
	}
	tr.Finish()
	if err != nil {
		return err
	}

	targets := append([]prob.TargetBound(nil), rep.Result.Targets...)
	sort.Slice(targets, func(i, j int) bool { return targets[i].Estimate() > targets[j].Estimate() })

	if *traceOutFlag != "" {
		f, err := os.Create(*traceOutFlag)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "enframe: wrote Chrome trace to %s (open in about:tracing or ui.perfetto.dev)\n", *traceOutFlag)
	}

	// With -json, stdout carries exactly one JSON object; the trace tree
	// and metrics dump move to stderr.
	aux := os.Stdout
	if *jsonFlag {
		aux = os.Stderr
	}
	if *traceFlag {
		fmt.Fprint(aux, tr.Tree())
		printWorkerTable(aux, rep.Result.Stats)
		printBudgetTimeline(aux, tr)
	}
	if *metricsFlag {
		fmt.Fprint(aux, tr.Metrics().String())
	}

	if *jsonFlag {
		return writeJSON(os.Stdout, rep, targets, tr, *metricsFlag)
	}

	fmt.Printf("# %d objects, %d variables, %d network nodes, %d targets\n",
		len(spec.Objects), spec.Space.Len(), rep.Net.NumNodes(), len(rep.Result.Targets))
	fmt.Printf("# strategy=%s eps=%g workers=%d: %v (%d branches)",
		*stratFlag, *epsFlag, *workersFlag, rep.Timings.Total.Round(time.Millisecond),
		rep.Result.Stats.Branches)
	if rep.Result.TimedOut {
		fmt.Print("  [timed out: bounds are partial]")
	}
	fmt.Println()

	limit := *topFlag
	if limit == 0 || limit > len(targets) {
		limit = len(targets)
	}
	fmt.Println("target\tlower\tupper\testimate")
	for _, tb := range targets[:limit] {
		fmt.Printf("%s\t%.6f\t%.6f\t%.6f\n", tb.Name, tb.Lower, tb.Upper, tb.Estimate())
	}
	if limit < len(targets) {
		fmt.Printf("… %d more targets (use -top 0 for all)\n", len(targets)-limit)
	}
	return nil
}

// runRequest projects the run flags onto the served request shape, so the
// run builds its spec through server.BuildSpec exactly as /v1/run does. A
// builtin program goes by name; any other -program names a file, whose text
// is sent as inline source.
func runRequest() (server.RunRequest, error) {
	req := server.RunRequest{
		Program: *programFlag,
		Data: server.DataSpec{
			Kind:    "sensor",
			N:       *nFlag,
			Scheme:  *schemeFlag,
			Vars:    *varsFlag,
			L:       *lFlag,
			M:       *mFlag,
			Certain: *certainFlag,
			Group:   *groupFlag,
			Seed:    *seedFlag,
		},
		Params:         server.ParamSpec{K: *kFlag, Iter: *iterFlag, R: *rFlag},
		Targets:        splitTargets(*targetsFlag),
		Strategy:       *stratFlag,
		Epsilon:        *epsFlag,
		Workers:        *workersFlag,
		JobDepth:       *jobFlag,
		SoftTimeoutMs:  int((*timeoutFlag + time.Millisecond - 1) / time.Millisecond),
		RemoteWorkers:  splitTargets(*remoteFlag),
		RemoteFallback: *remoteFallbackFlag,
	}
	if _, ok := lang.Builtins[req.Program]; ok {
		return req, nil
	}
	b, err := os.ReadFile(req.Program)
	if err != nil {
		return server.RunRequest{}, fmt.Errorf("program %q is not builtin and not readable: %w", req.Program, err)
	}
	if len(b) == 0 {
		return server.RunRequest{}, fmt.Errorf("program file %q is empty", req.Program)
	}
	req.Program, req.Source = "", string(b)
	return req, nil
}

func splitTargets(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
