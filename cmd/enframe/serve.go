package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"enframe/internal/server"
)

// runServe is the `enframe serve` subcommand: the long-lived serving layer
// of internal/server, with SIGINT/SIGTERM triggering a graceful drain.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	inflight := fs.Int("inflight", 0, "max concurrently executing runs (0 = 4×GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max runs waiting for a worker slot (0 = 4×inflight)")
	cacheEntries := fs.Int("cache", server.DefaultCacheEntries, "compiled-artifact LRU capacity (entries)")
	defTimeout := fs.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "upper clamp on requested deadlines")
	maxBody := fs.Int64("max-body", 1<<20, "request body size limit in bytes")
	tenantQuota := fs.Int("tenant-quota", 0, "max admission slots per named tenant (0 = half of inflight+queue)")
	grace := fs.Duration("grace", 30*time.Second, "drain grace period on SIGTERM/SIGINT")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the serving mux")
	accessLog := fs.Bool("access-log", true, "write one JSON access-log line per request to stderr")
	streamSessions := fs.Int("stream-sessions", 0, "max live /v1/stream sessions (0 = 64)")
	streamIdle := fs.Duration("stream-idle", 0, "idle age after which a stream session may be evicted (0 = 15m)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: enframe serve [-addr HOST:PORT] [flags]   (API schema in SERVING.md)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))
	}

	cfg := server.Config{
		Addr:           *addr,
		MaxInflight:    *inflight,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
		TenantQuota:    *tenantQuota,
		Pprof:          *pprofOn,

		MaxStreamSessions: *streamSessions,
		StreamIdleTimeout: *streamIdle,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv := server.New(cfg)
	if err := srv.Start(); err != nil {
		return err
	}
	// The LISTEN line is the spawn protocol (same as `enframe worker`):
	// harnesses that start shard fleets on ephemeral ports scrape stdout for
	// the bound address.
	fmt.Printf("LISTEN %s\n", srv.Addr())
	fmt.Fprintf(os.Stderr, "enframe: serving on http://%s (POST /v1/run, POST /v1/stream, GET /healthz, GET /metrics)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "enframe: %v received, draining (grace %v)\n", got, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "enframe: drained cleanly")
	return nil
}
