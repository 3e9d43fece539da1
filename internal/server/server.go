// Package server is ENFrame's long-lived serving layer: an HTTP JSON API
// that runs the core pipeline (lex → parse → translate → ground → compile)
// concurrently, with a bounded LRU cache of compiled artifacts so repeated
// (program, data, targets) requests skip straight to probability
// computation — exact requests replay the artifact's memoized circuit,
// approximate ones compile with fresh strategy/ε/deadline — admission
// control (bounded worker pool plus bounded accept queue with fast 429/503
// rejection, per-tenant quotas), per-request deadlines that cancel
// in-flight compilation, and graceful drain. Endpoints: POST /v1/run,
// /v1/whatif, /v1/stream and /v1/warm, which share one request path
// (serve); GET /healthz, GET /metrics, and optional /debug/pprof.
// Everything is standard library; see SERVING.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enframe/internal/circuit"
	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/obs"
	"enframe/internal/prob"
)

// Config sizes the server. Zero values take the documented defaults.
type Config struct {
	// Addr is the listen address; ":0" and "127.0.0.1:0" pick an ephemeral
	// port (read it back with Addr after Start).
	Addr string
	// MaxInflight bounds concurrently executing pipeline runs (the worker
	// pool). Default 4×GOMAXPROCS.
	MaxInflight int
	// QueueDepth bounds requests admitted but waiting for a worker slot;
	// beyond MaxInflight+QueueDepth, requests are rejected immediately
	// with 429. Default 4×MaxInflight.
	QueueDepth int
	// CacheEntries bounds the compiled-artifact LRU. Default 64.
	CacheEntries int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps what a request may ask for. Defaults 30s and 2m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body. Default 1 MiB.
	MaxBodyBytes int64
	// TenantQuota caps the admission slots (executing + queued) any single
	// named tenant may hold; a tenant at its quota is answered 429 even
	// when global capacity remains, so one hot tenant cannot starve the
	// accept queue. Anonymous requests are exempt. Default: half of
	// MaxInflight+QueueDepth, minimum 1.
	TenantQuota int
	// MaxStreamSessions caps concurrently open /v1/stream sessions;
	// StreamIdleTimeout is how long an untouched session may linger before
	// a full registry may evict it. Defaults 64 and 15m.
	MaxStreamSessions int
	StreamIdleTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// Registry receives the server metrics; a fresh one is created when
	// nil. GET /metrics renders it.
	Registry *obs.Registry
	// AccessLog, when non-nil, receives one structured line per request:
	// request ID, route, status, outcome, artifact/cache disposition,
	// duration, and response bytes. Nil disables access logging.
	AccessLog *slog.Logger
}

// DefaultCacheEntries is the artifact-cache capacity of a server whose
// Config leaves CacheEntries unset, and of `enframe serve` without -cache.
// The shard router tracks at most this many keys per shard for warming.
const DefaultCacheEntries = 64

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = (c.MaxInflight + c.QueueDepth) / 2
		if c.TenantQuota < 1 {
			c.TenantQuota = 1
		}
	}
	if c.MaxStreamSessions <= 0 {
		c.MaxStreamSessions = 64
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 15 * time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response was ready.
const statusClientClosedRequest = 499

// Server is one serving instance. Create with New, bind with Start, stop
// with Shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *artifactCache

	// workSlots bounds executing runs; queueSlots additionally bounds
	// admitted-but-waiting runs. Both are semaphores.
	workSlots  chan struct{}
	queueSlots chan struct{}

	httpSrv   *http.Server
	listener  net.Listener
	draining  atomic.Bool
	inflight  atomic.Int64
	serveErr  chan error
	accessLog *slog.Logger

	// pools caches worker pools by their sorted address list, so repeated
	// requests naming the same worker set reuse live connections and
	// worker-side session caches. It is poolFlight's memo: requests for one
	// set share one dial, run outside poolsMu, so different sets never wait
	// on each other's TCP dials.
	poolsMu    sync.Mutex
	pools      poolMemo
	poolFlight core.Flight[string, *dist.Pool]

	// tenants is the fairness-aware half of admission control (tenant.go).
	tenants *tenantLimiter

	mRequests       *obs.Counter
	mOK             *obs.Counter
	mBadRequest     *obs.Counter
	mErrors         *obs.Counter
	mRejQueue       *obs.Counter // 429: queue full
	mRejDraining    *obs.Counter // 503: draining
	mDeadline       *obs.Counter // 504: per-request deadline exceeded
	mCanceled       *obs.Counter // 499: client disconnected
	mBadGateway     *obs.Counter // 502: remote worker plane failed
	mPanics         *obs.Counter // 500: a panic on the request path, in a flight leader or a stream session
	mRemoteRuns     *obs.Counter
	mRemoteFallback *obs.Counter
	gInflight       *obs.Gauge
	gInflightPeak   *obs.Gauge
	hLatency        *obs.Histogram

	// Circuit-backend telemetry: disposition of the artifact circuit memo on
	// /v1/run (exact) and /v1/whatif, size of the most recent circuit, and
	// /v1/whatif's per-point replay cost.
	mCircuitHits   *obs.Counter
	mCircuitMisses *obs.Counter
	gCircuitNodes  *obs.Gauge
	hCircuitEval   *obs.Histogram

	// mWarm counts /v1/warm requests that resolved an artifact (the shard
	// router's cache-migration traffic).
	mWarm *obs.Counter

	// streams is the /v1/stream session registry; the stream.* metrics
	// expose its traffic (see OBSERVABILITY.md).
	streams            *streamRegistry
	mStreamCreated     *obs.Counter
	mStreamClosed      *obs.Counter
	mStreamEvicted     *obs.Counter
	mStreamPushes      *obs.Counter
	mStreamDeltas      *obs.Counter
	mStreamSeqConflict *obs.Counter
	mStreamReplays     *obs.Counter
	mStreamRetraces    *obs.Counter
	mStreamRegrounds   *obs.Counter
	gStreamActive      *obs.Gauge
	hStreamPush        *obs.Histogram
}

// latencyBucketsMs are the /metrics latency histogram upper bounds.
var latencyBucketsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// evalBucketsMs are the circuit-replay histogram bounds; one replay is
// orders of magnitude cheaper than a compile, so the buckets start at 10µs.
var evalBucketsMs = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 25, 100}

// testHookInflight, when set by tests, runs while the request holds a
// worker slot, before the pipeline starts.
var testHookInflight func()

// testHookPoolDial, when set by tests, runs on the dialing (leader) path of
// poolFor just before dist.NewPool, with the pool's address-set key. It
// exists to prove that a slow dial blocks neither other address sets nor
// same-set waiters' cancellation.
var testHookPoolDial func(key string)

// New builds a server; it does not listen yet.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		cache:      newArtifactCache(cfg.CacheEntries, cfg.Registry),
		workSlots:  make(chan struct{}, cfg.MaxInflight),
		queueSlots: make(chan struct{}, cfg.MaxInflight+cfg.QueueDepth),
		serveErr:   make(chan error, 1),
		pools:      poolMemo{byKey: map[string]*dist.Pool{}},
		tenants:    newTenantLimiter(cfg.TenantQuota, cfg.Registry),
		accessLog:  cfg.AccessLog,

		mRequests:       cfg.Registry.Counter("server.requests"),
		mOK:             cfg.Registry.Counter("server.responses.ok"),
		mBadRequest:     cfg.Registry.Counter("server.responses.bad_request"),
		mErrors:         cfg.Registry.Counter("server.responses.error"),
		mRejQueue:       cfg.Registry.Counter("server.rejected.queue_full"),
		mRejDraining:    cfg.Registry.Counter("server.rejected.draining"),
		mDeadline:       cfg.Registry.Counter("server.deadline_exceeded"),
		mCanceled:       cfg.Registry.Counter("server.client_canceled"),
		mBadGateway:     cfg.Registry.Counter("server.responses.bad_gateway"),
		mPanics:         cfg.Registry.Counter("server.panics"),
		mRemoteRuns:     cfg.Registry.Counter("server.remote.runs"),
		mRemoteFallback: cfg.Registry.Counter("server.remote.fallbacks"),
		gInflight:       cfg.Registry.Gauge("server.inflight"),
		gInflightPeak:   cfg.Registry.Gauge("server.inflight.peak"),
		hLatency:        cfg.Registry.Histogram("server.latency_ms", latencyBucketsMs),

		mCircuitHits:   cfg.Registry.Counter("circuit.cache.hits"),
		mCircuitMisses: cfg.Registry.Counter("circuit.cache.misses"),
		gCircuitNodes:  cfg.Registry.Gauge("circuit.nodes"),
		hCircuitEval:   cfg.Registry.Histogram("circuit.eval_ms", evalBucketsMs),

		mWarm: cfg.Registry.Counter("server.warm.requests"),

		streams:            newStreamRegistry(cfg.MaxStreamSessions, cfg.StreamIdleTimeout),
		mStreamCreated:     cfg.Registry.Counter("stream.sessions.created"),
		mStreamClosed:      cfg.Registry.Counter("stream.sessions.closed"),
		mStreamEvicted:     cfg.Registry.Counter("stream.sessions.evicted"),
		mStreamPushes:      cfg.Registry.Counter("stream.pushes"),
		mStreamDeltas:      cfg.Registry.Counter("stream.deltas"),
		mStreamSeqConflict: cfg.Registry.Counter("stream.seq_conflicts"),
		mStreamReplays:     cfg.Registry.Counter("stream.segment.replays"),
		mStreamRetraces:    cfg.Registry.Counter("stream.segment.retraces"),
		mStreamRegrounds:   cfg.Registry.Counter("stream.segment.regrounds"),
		gStreamActive:      cfg.Registry.Gauge("stream.sessions.active"),
		hStreamPush:        cfg.Registry.Histogram("stream.push_ms", latencyBucketsMs),
	}
	s.poolFlight = core.NewFlight[string, *dist.Pool]("pool dial", &s.poolsMu, &s.pools)
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the server's route mux (also usable without a listener,
// e.g. under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, rt := range s.routes() {
		mux.HandleFunc(path, s.serve(rt))
	}
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.withTelemetry(mux)
}

// Start binds the configured address and serves in the background. The
// listener is bound when Start returns, so Addr is immediately valid.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr <- err
		}
		close(s.serveErr)
	}()
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains gracefully: new work is rejected with 503, the listener
// closes, in-flight requests run to completion (or until ctx expires, at
// which point remaining connections are cut), and every remote worker pool
// is torn down. A handler-only server (one Start never ran) has no serve
// loop to wait for.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	if s.listener != nil {
		if serr, ok := <-s.serveErr; ok && err == nil {
			err = serr
		}
	}
	s.poolsMu.Lock()
	s.pools.close()
	s.poolsMu.Unlock()
	// Streaming sessions are plain state (no goroutines); dropping the
	// registry releases them.
	s.streams.clear()
	s.gStreamActive.Set(0)
	return err
}

// Registry exposes the metrics registry to code that embeds the server
// in-process.
func (s *Server) Registry() *obs.Registry { return s.reg }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the registry; format negotiation (JSON snapshot,
// Prometheus exposition, human-readable dump) lives in obs.WriteMetricsHTTP
// so every /metrics endpoint in the fleet — serve shards and the shard
// router — shares one contract.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.SampleRuntime() // scrape answers must reflect the live process
	obs.WriteMetricsHTTP(s.reg, w, r)
}

// runRoute is POST /v1/run's validation: the defaulted request must pass
// BuildSpec's checks. The tenant never reaches them — it must not perturb
// the artifact key.
func (s *Server) runRoute(req RunRequest) (*ticket, error) {
	req = req.withDefaults()
	plan, err := planSpec(req)
	if err != nil {
		return nil, err
	}
	return &ticket{key: plan.key, tenant: req.Tenant, timeoutMs: req.TimeoutMs,
		execute: func(ctx context.Context, info *reqInfo) (func(http.ResponseWriter), error) {
			return s.run(ctx, info, plan, req)
		},
	}, nil
}

// run is POST /v1/run's execute step: the cache-aware pipeline, then the
// JSON result. Per-request tracing is opt-in: the whole pipeline runs under
// one trace whose span tree (including spliced remote worker subtrees)
// returns inline in the response.
func (s *Server) run(ctx context.Context, info *reqInfo, plan specPlan, req RunRequest) (func(http.ResponseWriter), error) {
	var tr *obs.Trace
	if req.Trace {
		tr = obs.New("run")
		tr.Root().SetStr("request_id", info.id)
	}
	rep, cache, served, remote, err := s.execute(ctx, plan, req, tr)
	info.cache = cache.String()
	info.served = served
	info.remote = remote.used
	info.fallback = remote.fellBack
	if err != nil {
		return nil, err
	}
	resp := buildResponse(req, rep, cache != core.Miss, served, remote)
	if tr != nil {
		tr.Finish()
		ex := tr.Root().Export()
		resp.Trace = &ex
	}
	return func(w http.ResponseWriter) {
		writeSpliced(w, getReplyBuf(), resp, "targets", func(b []byte) []byte { return appendTargets(b, rep.Result.Targets) })
	}, nil
}

// IsRemoteError classifies distributed-plane failures for the 502 contract
// and for remote_fallback (the CLI's -remote-fallback): typed wire-protocol
// errors and transport-level executor loss, as opposed to compilation errors
// (422) and context errors (499/504).
func IsRemoteError(err error) bool {
	return dist.IsProtocolError(err) || errors.Is(err, prob.ErrExecutorUnavailable)
}

// remoteStatus records how the distributed plane served one request, for
// the response body and metrics.
type remoteStatus struct {
	used     bool // jobs shipped to remote workers
	workers  int  // live workers at completion
	fellBack bool // remote requested but served locally
}

// The values of the reply's "served_from" member.
const (
	servedCircuit = "circuit" // memo hit: this request ran zero compilations
	servedTrace   = "trace"   // this request traced the circuit
	servedCompile = "compile" // approximate strategy, or remote workers
)

// testHookPrepare, when set by tests, runs on the preparing (leader) path of
// artifactFor, before the data is generated and core.PrepareContext runs.
var testHookPrepare func()

// artifactFor resolves the plan's key through the artifact cache. Only a
// miss generates the plan's data and prepares its spec, so a hit builds no
// data at all; a data error answers 400 and leaves nothing in the cache.
func (s *Server) artifactFor(ctx context.Context, plan specPlan) (*core.Artifact, core.Outcome, error) {
	return s.cache.getOrPrepare(ctx, plan.key, func() (*core.Artifact, error) {
		if testHookPrepare != nil {
			testHookPrepare()
		}
		spec, err := plan.spec()
		if err != nil {
			return nil, err
		}
		return core.PrepareContext(ctx, spec)
	})
}

// circuitFor resolves the artifact's circuit through its memo and accounts
// for the lookup: cached means this request ran zero compilations.
func (s *Server) circuitFor(ctx context.Context, art *core.Artifact, opts prob.Options) (*circuit.Circuit, *prob.Result, bool, error) {
	c, res, cached, err := art.Circuit(ctx, opts)
	if err != nil {
		return nil, nil, false, err
	}
	if cached {
		s.mCircuitHits.Inc()
	} else {
		s.mCircuitMisses.Inc()
		s.cache.refreshBytes()
	}
	s.gCircuitNodes.Set(float64(c.Nodes()))
	return c, res, cached, nil
}

// execute resolves the artifact through the cache and computes the request's
// probabilities on it. Exact requests are answered from the artifact's
// memoized circuit: the first request on an artifact traces it, every later
// one is a memo lookup. Approximate strategies compile in-process; requests
// naming remote_workers ship the compilation to the worker plane.
func (s *Server) execute(ctx context.Context, plan specPlan, req RunRequest, tr *obs.Trace) (*core.Report, core.Outcome, string, remoteStatus, error) {
	art, cache, err := s.artifactFor(ctx, plan)
	if err != nil {
		return nil, cache, "", remoteStatus{}, err
	}

	opts := req.CompileOptions() // validated by BuildSpec
	opts.Obs = tr

	if len(req.RemoteWorkers) > 0 {
		rep, remote, rerr := s.executeRemote(ctx, art, plan.key, req, opts)
		if rerr == nil {
			return rep, cache, servedCompile, remote, nil
		}
		if !req.RemoteFallback || ctx.Err() != nil || !IsRemoteError(rerr) {
			return nil, cache, "", remote, rerr
		}
		// The plane is down and the request opted into degraded mode: run
		// locally and say so in the response.
		s.mRemoteFallback.Inc()
	}
	remote := remoteStatus{fellBack: len(req.RemoteWorkers) > 0}

	if opts.Strategy == prob.Exact {
		t0 := time.Now()
		c, res, cached, err := s.circuitFor(ctx, art, opts)
		if err != nil {
			return nil, cache, "", remote, err
		}
		wait := time.Since(t0)
		served := servedTrace
		if cached {
			// The tracing request's span tree shows compile → trace; a
			// replayed one carries this marker instead.
			served = servedCircuit
			sp := tr.Root().Start("circuit.replay")
			sp.SetInt("nodes", int64(c.Nodes()))
			sp.SetInt("tree_branches", c.TreeBranches())
			sp.SetDuration("wait", wait)
			sp.End()
		}
		return art.ReportFor(res, wait), cache, served, remote, nil
	}

	rep, err := art.CompileContext(ctx, opts)
	if err != nil {
		return nil, cache, "", remote, err
	}
	return rep, cache, servedCompile, remote, nil
}

// executeRemote ships the compilation to the request's worker set via a
// cached pool.
func (s *Server) executeRemote(ctx context.Context, art *core.Artifact, key string, req RunRequest, opts prob.Options) (*core.Report, remoteStatus, error) {
	pool, err := s.poolFor(ctx, req.RemoteWorkers)
	if err != nil {
		return nil, remoteStatus{}, err
	}
	s.mRemoteRuns.Inc()
	rep, err := CompileRemote(ctx, pool, art, key, req, opts)
	return rep, remoteStatus{used: true, workers: pool.AliveWorkers()}, err
}

// CompileRemote compiles art by shipping jobs to pool's workers. The
// artifact-identifying request travels as the session spec; workers
// re-derive the artifact and verify its content hash equals key.
func CompileRemote(ctx context.Context, pool *dist.Pool, art *core.Artifact, key string, req RunRequest, opts prob.Options) (*core.Report, error) {
	specJSON, err := json.Marshal(ArtifactRequest(req))
	if err != nil {
		return nil, fmt.Errorf("server: encode wire spec: %w", err)
	}
	opts.Order = art.Order(opts.Heuristic)
	exec := pool.Session(key, specJSON, opts)
	tCompile := time.Now()
	pr, err := prob.CompileExec(ctx, art.Net, opts, exec)
	if err != nil {
		return nil, err
	}
	return art.ReportFor(pr, time.Since(tCompile)), nil
}

// poolMemo keeps worker pools by their sorted address list. A pool with no
// live worker left is closed and dropped, so the next request redials. A
// closed memo keeps nothing: a dial that finishes after Shutdown closes its
// pool instead of leaving it open in a memo nobody will close again.
type poolMemo struct {
	byKey  map[string]*dist.Pool
	closed bool
}

func (m *poolMemo) Get(key string) (*dist.Pool, bool) {
	p, ok := m.byKey[key]
	if ok && p.AliveWorkers() == 0 {
		_ = p.Close()
		delete(m.byKey, key)
		return nil, false
	}
	return p, ok
}

func (m *poolMemo) Keep(key string, p *dist.Pool) {
	if m.closed {
		_ = p.Close()
		return
	}
	m.byKey[key] = p
}

// close closes every kept pool and every pool offered later.
func (m *poolMemo) close() {
	m.closed = true
	for key, p := range m.byKey {
		_ = p.Close()
		delete(m.byKey, key)
	}
}

// poolFor returns the cached pool for a worker set, dialing it under
// poolFlight on first use and after every worker of the cached pool died.
func (s *Server) poolFor(ctx context.Context, addrs []string) (*dist.Pool, error) {
	sorted := append([]string(nil), addrs...)
	sort.Strings(sorted)
	key := strings.Join(sorted, ",")
	p, _, err := s.poolFlight.Do(ctx, key, func() (*dist.Pool, error) {
		if testHookPoolDial != nil {
			testHookPoolDial(key)
		}
		return dist.NewPool(ctx, dist.PoolConfig{Addrs: sorted, Reg: s.reg})
	})
	return p, err
}
