// The worker subcommand and the run subcommand's -remote path: both ends of
// the distributed compilation plane (internal/dist, DESIGN.md).
//
// A worker is a long-lived process that executes depth-d compilation jobs
// shipped to it over TCP:
//
//	enframe worker -listen 127.0.0.1:9631
//
// It prints "LISTEN <addr>" on stdout once bound — with -listen :0 the
// ephemeral port is read from there — and serves until SIGINT/SIGTERM.
// Workers resolve shipped artifact specs through the same resolver as the
// HTTP serving layer (server.BuildSpec) and verify the artifact content hash
// before caching the session, so a coordinator and its workers always agree
// on the event network bit for bit.
//
// The run side ships jobs with:
//
//	enframe -remote 127.0.0.1:9631,127.0.0.1:9632 [-remote-fallback] ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/obs"
	"enframe/internal/server"
)

// workerFlags is the flag set of the worker subcommand.
var workerFlags = flag.NewFlagSet("worker", flag.ExitOnError)

var (
	workerListenFlag   = workerFlags.String("listen", "127.0.0.1:9631", "TCP address to bind (port 0 picks an ephemeral port, reported on stdout)")
	workerSlotsFlag    = workerFlags.Int("slots", 0, "parallel job capacity advertised to coordinators (0 = GOMAXPROCS)")
	workerSessionsFlag = workerFlags.Int("sessions", 8, "compiled-session cache capacity (oldest evicted beyond it)")
	workerQuietFlag    = workerFlags.Bool("quiet", false, "suppress per-connection diagnostics on stderr")

	// Deterministic fault injection for the smoke harness and fault drills
	// (see TESTING.md); both count completed jobs, not wall clock.
	workerKillAfterFlag = workerFlags.Int64("fault-kill-after", 0, "TESTING: exit after completing this many jobs, mid-stream")
	workerDropNthFlag   = workerFlags.Int64("fault-drop-nth", 0, "TESTING: swallow the result of every Nth completed job")
)

// runWorker starts a distributed compilation worker and serves until Close
// (signal) or a listener error.
func runWorker(args []string) error {
	if err := workerFlags.Parse(args); err != nil {
		return err
	}
	if workerFlags.NArg() > 0 {
		return fmt.Errorf("worker: unexpected argument %q", workerFlags.Arg(0))
	}

	var fault *dist.FaultPlan
	if *workerKillAfterFlag > 0 || *workerDropNthFlag > 0 {
		fault = &dist.FaultPlan{
			KillAfterJobs: *workerKillAfterFlag,
			DropEveryNth:  *workerDropNthFlag,
		}
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "enframe worker: "+format+"\n", a...)
	}
	if *workerQuietFlag {
		logf = nil
	}
	w, err := dist.NewWorker(dist.WorkerConfig{
		Resolver:    resolveWireSpec,
		Slots:       *workerSlotsFlag,
		MaxSessions: *workerSessionsFlag,
		Fault:       fault,
		Logf:        logf,
	})
	if err != nil {
		return err
	}
	if err := w.Listen(*workerListenFlag); err != nil {
		return err
	}

	// The LISTEN line is the spawn protocol: harnesses that start workers
	// with -listen :0 scrape the ephemeral port from stdout.
	fmt.Printf("LISTEN %s\n", w.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		_ = w.Close()
	}()
	return w.Serve()
}

// resolveWireSpec is the worker-side artifact resolver: shipped specs are
// server.RunRequest JSON stripped to artifact-identifying fields
// (server.ArtifactRequest), so the worker re-derives the network through the
// exact code path the serving layer uses.
func resolveWireSpec(specJSON []byte) (core.Spec, string, error) {
	var req server.RunRequest
	if err := json.Unmarshal(specJSON, &req); err != nil {
		return core.Spec{}, "", fmt.Errorf("worker: decode spec: %w", err)
	}
	return server.BuildSpec(req)
}

// runRemote is the run subcommand's -remote path: prepare the artifact
// locally, dial the worker pool, and compile by shipping jobs. With
// -remote-fallback, transport-level failure reruns in process — the same
// policy the serving layer applies to remote_fallback requests.
func runRemote(spec core.Spec, key string, req server.RunRequest) (*core.Report, error) {
	ctx := context.Background()
	art, err := core.PrepareContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	var reg *obs.Registry
	if spec.Compile.Obs != nil {
		reg = spec.Compile.Obs.Metrics()
	}
	pool, err := dist.NewPool(ctx, dist.PoolConfig{Addrs: req.RemoteWorkers, Reg: reg})
	if err == nil {
		defer pool.Close()
		var rep *core.Report
		if rep, err = server.CompileRemote(ctx, pool, art, key, req, spec.Compile); err == nil {
			fmt.Fprintf(os.Stderr, "enframe: remote: compiled over %d live worker(s)\n", pool.AliveWorkers())
			return rep, nil
		}
	}
	if req.RemoteFallback && server.IsRemoteError(err) {
		fmt.Fprintf(os.Stderr, "enframe: remote plane unavailable (%v); falling back to local compilation\n", err)
		return art.CompileContext(ctx, spec.Compile)
	}
	return nil, err
}
