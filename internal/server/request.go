package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"enframe/internal/core"
	"enframe/internal/data"
	"enframe/internal/gen"
	"enframe/internal/lang"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

// RunRequest is the body of POST /v1/run. Program source, data-generation
// spec, and targets identify the compiled artifact (they form the cache
// key); strategy, ε, workers, and deadlines are per-request compilation
// parameters that reuse a cached artifact unchanged. See SERVING.md.
type RunRequest struct {
	// Program names a builtin ("kmedoids", "kmeans", "mcl"); Source carries
	// inline program text and takes precedence. The server never reads
	// files.
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	// Data configures the probabilistic input generator.
	Data DataSpec `json:"data"`
	// Params backs loadParams(): K/Iter for the clustering programs, R/Iter
	// for Markov clustering.
	Params ParamSpec `json:"params"`
	// Targets are symbol patterns as in the CLI -targets flag; the default
	// is the builtin's result (lang.Builtins), "Centre[" for inline source.
	Targets []string `json:"targets,omitempty"`
	// Strategy is exact (default), eager, lazy, or hybrid; Epsilon is the
	// absolute error budget for the approximation strategies.
	Strategy prob.Strategy `json:"strategy,omitempty"`
	Epsilon  float64       `json:"epsilon,omitempty"`
	// Workers > 1 compiles with the distributed runner; JobDepth is the
	// fragment depth d.
	Workers  int `json:"workers,omitempty"`
	JobDepth int `json:"job_depth,omitempty"`
	// Order selects the variable-order heuristic: "fanout" (default) or
	// "input".
	Order prob.OrderHeuristic `json:"order,omitempty"`
	// TimeoutMs is the hard per-request deadline: exceeding it aborts the
	// pipeline and answers 504. Zero means the server default; values are
	// clamped to the server maximum.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// SoftTimeoutMs, when positive, bounds compilation via prob's anytime
	// timer instead: the request succeeds with the partial bounds reached
	// so far and "timed_out": true.
	SoftTimeoutMs int `json:"soft_timeout_ms,omitempty"`
	// RemoteWorkers lists TCP addresses of enframe worker processes; when
	// non-empty, compilation jobs ship to them over the distributed plane
	// instead of running in-process. Workers and RemoteWorkers are
	// mutually exclusive interpretations of the same request: remote wins.
	RemoteWorkers []string `json:"remote_workers,omitempty"`
	// RemoteFallback permits local in-process compilation when the remote
	// plane is unreachable or lost mid-run; by default such failures
	// answer 502 Bad Gateway.
	RemoteFallback bool `json:"remote_fallback,omitempty"`
	// Trace asks for a per-request execution trace: the response carries the
	// span tree under "trace", with remote worker subtrees spliced in on
	// their own process lanes. Tracing never affects the cache key.
	Trace bool `json:"trace,omitempty"`
	// Tenant identifies the caller for per-tenant accounting and quota
	// enforcement; the X-Tenant-Id header is the out-of-band equivalent (the
	// body field wins). Tenancy never affects the artifact cache key —
	// ArtifactRequest strips it, so tenants share compiled artifacts.
	Tenant string `json:"tenant,omitempty"`
}

// DataSpec mirrors the CLI data-generation flags. Kind "sensor" (default)
// is the synthetic energy-network feed with a correlation scheme attached;
// kind "gen" replays the differential harness's seeded generator
// (internal/gen), deriving program, data, and targets from Seed alone. No
// production client sends "gen": it is served so that a remote run over TCP
// can be held to the golden corpus, the remote == golden check of
// TestDistributedOracleOverTCP (internal/difftest), and so that
// TestServedRunMatchesDirectRun can compare served and direct runs of
// generated programs.
type DataSpec struct {
	Kind    string  `json:"kind,omitempty"` // "sensor" (default) or "gen"
	N       int     `json:"n,omitempty"`
	Scheme  string  `json:"scheme,omitempty"`
	Vars    int     `json:"vars,omitempty"`
	L       int     `json:"l,omitempty"`
	M       int     `json:"m,omitempty"`
	Certain float64 `json:"certain,omitempty"`
	Group   int     `json:"group,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
}

// ParamSpec backs loadParams() and init().
type ParamSpec struct {
	K    int `json:"k,omitempty"`
	Iter int `json:"iter,omitempty"`
	R    int `json:"r,omitempty"`
}

// withDefaults mirrors the CLI flag defaults.
func (r RunRequest) withDefaults() RunRequest {
	if r.Program == "" && r.Source == "" {
		r.Program = "kmedoids"
	}
	if r.Data.Kind == "" {
		r.Data.Kind = "sensor"
	}
	if r.Data.N == 0 {
		r.Data.N = 12
	}
	if r.Data.Scheme == "" {
		r.Data.Scheme = "positive"
	}
	if r.Data.Vars == 0 {
		r.Data.Vars = 10
	}
	if r.Data.L == 0 {
		r.Data.L = 8
	}
	if r.Data.M == 0 {
		r.Data.M = 12
	}
	if r.Data.Group == 0 {
		r.Data.Group = 4
	}
	if r.Data.Seed == 0 {
		r.Data.Seed = 1
	}
	if r.Params.K == 0 {
		r.Params.K = 2
	}
	if r.Params.Iter == 0 {
		r.Params.Iter = 3
	}
	if r.Params.R == 0 {
		r.Params.R = 2
	}
	if len(r.Targets) == 0 {
		r.Targets = lang.DefaultTargets(r.Program, r.Source)
	}
	if r.Strategy != prob.Exact && r.Epsilon == 0 {
		r.Epsilon = 0.1
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	if r.JobDepth == 0 {
		r.JobDepth = 3
	}
	return r
}

// CompileOptions are the request's per-request compilation parameters —
// strategy, ε, workers, job depth, order heuristic and soft timeout — after
// defaulting. BuildSpec validates them.
func (r RunRequest) CompileOptions() prob.Options {
	r = r.withDefaults()
	return prob.Options{
		Strategy:  r.Strategy,
		Epsilon:   r.Epsilon,
		Workers:   r.Workers,
		JobDepth:  r.JobDepth,
		Heuristic: r.Order,
		Timeout:   time.Duration(r.SoftTimeoutMs) * time.Millisecond,
	}
}

// maxWorkersPerRequest caps the goroutine fan-out a single request may ask
// for; overall compile concurrency is bounded separately by admission
// control. The same cap bounds remote_workers addresses.
const maxWorkersPerRequest = 16

// ArtifactRequest strips a request down to the fields that determine its
// compiled artifact (program, data, params, targets) — the exact inputs of
// the cache key. This is the spec form shipped to remote workers: the worker
// re-derives the artifact with BuildSpec and verifies the content hash, while
// per-request knobs (strategy, ε, depth, timeouts) travel separately as
// session options.
func ArtifactRequest(req RunRequest) RunRequest {
	req = req.withDefaults()
	return RunRequest{
		Program: req.Program,
		Source:  req.Source,
		Data:    req.Data,
		Params:  req.Params,
		Targets: req.Targets,
	}
}

// badRequestError marks request-validation failures that map to HTTP 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// BuildSpec validates the request (after defaulting) and produces the
// core.Spec it denotes — everything but the compile options — together with
// the artifact cache key: a content hash over the resolved program source,
// the data-generation spec, and the targets. Two requests with equal keys
// ground byte-identical event networks.
func BuildSpec(req RunRequest) (core.Spec, string, error) {
	p, err := planSpec(req)
	if err != nil {
		return core.Spec{}, "", err
	}
	spec, err := p.spec()
	if err != nil {
		return core.Spec{}, "", err
	}
	return spec, p.key, nil
}

// ArtifactKey is BuildSpec's validation and key without the data: the
// artifact cache key of a request BuildSpec accepts, or its 400 error. A
// request whose generated data turns out invalid (see specPlan.spec) gets a
// key here and fails only when its data is built.
func ArtifactKey(req RunRequest) (string, error) {
	p, err := planSpec(req)
	return p.key, err
}

// specPlan is a validated request and its artifact key: BuildSpec's first
// step, which generates no data. Its spec method is the second.
type specPlan struct {
	req    RunRequest // defaulted
	key    string
	source string        // resolved program text (sensor data)
	parsed *lang.Program // a builtin's shared AST; nil for inline source
	isMCL  bool
	scheme lineage.Scheme
}

// planSpec validates the defaulted request and computes its artifact key.
func planSpec(req RunRequest) (specPlan, error) {
	req = req.withDefaults()
	if req.Strategy != prob.Exact && req.Epsilon <= 0 {
		return specPlan{}, badRequest("epsilon must be > 0 with strategy %q", req.Strategy)
	}
	if req.Workers < 1 || req.Workers > maxWorkersPerRequest {
		return specPlan{}, badRequest("workers must be in [1, %d] (got %d)", maxWorkersPerRequest, req.Workers)
	}
	if req.JobDepth < 1 {
		return specPlan{}, badRequest("job_depth must be ≥ 1 (got %d)", req.JobDepth)
	}
	if req.TimeoutMs < 0 || req.SoftTimeoutMs < 0 {
		return specPlan{}, badRequest("timeouts must be ≥ 0")
	}
	if len(req.RemoteWorkers) > maxWorkersPerRequest {
		return specPlan{}, badRequest("remote_workers must list at most %d addresses (got %d)",
			maxWorkersPerRequest, len(req.RemoteWorkers))
	}
	for _, addr := range req.RemoteWorkers {
		if strings.TrimSpace(addr) == "" {
			return specPlan{}, badRequest("remote_workers entries must be host:port addresses")
		}
	}
	if req.RemoteFallback && len(req.RemoteWorkers) == 0 {
		return specPlan{}, badRequest("remote_fallback requires remote_workers")
	}

	switch req.Data.Kind {
	case "gen":
		h := sha256.New()
		fmt.Fprintf(h, "v1\x00gen\x00seed=%d", req.Data.Seed)
		return specPlan{req: req, key: hex.EncodeToString(h.Sum(nil))}, nil
	case "sensor":
		return planSensor(req)
	default:
		return specPlan{}, badRequest("unknown data kind %q (want sensor or gen)", req.Data.Kind)
	}
}

// planSensor validates the synthetic energy-network workload, the served
// twin of the CLI's default path, and keys it.
func planSensor(req RunRequest) (specPlan, error) {
	if req.Data.N < 1 {
		return specPlan{}, badRequest("data.n must be ≥ 1 (got %d)", req.Data.N)
	}
	if req.Data.N > 64 {
		return specPlan{}, badRequest("data.n must be ≤ 64 (got %d)", req.Data.N)
	}
	if req.Params.K < 1 || req.Params.Iter < 1 || req.Params.R < 1 {
		return specPlan{}, badRequest("params must be ≥ 1")
	}
	if req.Params.Iter > core.MaxIter {
		return specPlan{}, badRequest("params.iter must be ≤ %d (got %d)", core.MaxIter, req.Params.Iter)
	}
	if req.Data.Vars > core.MaxVars {
		return specPlan{}, badRequest("data.vars must be ≤ %d (got %d)", core.MaxVars, req.Data.Vars)
	}
	source, parsed, isMCL, err := resolveProgram(req)
	if err != nil {
		return specPlan{}, err
	}
	// A cluster count is further capped by data.n.
	if maxK := min(req.Data.N, core.MaxK); !isMCL && req.Params.K > maxK {
		return specPlan{}, badRequest("params.k must be ≤ min(data.n, %d) = %d (got %d)", core.MaxK, maxK, req.Params.K)
	}
	scheme, err := lineage.ParseScheme(req.Data.Scheme)
	if err != nil {
		return specPlan{}, badRequest("%v", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "v1\x00source\x00%s\x00", source)
	fmt.Fprintf(h, "data\x00sensor;n=%d;scheme=%s;vars=%d;l=%d;m=%d;certain=%g;group=%d;seed=%d\x00",
		req.Data.N, req.Data.Scheme, req.Data.Vars, req.Data.L, req.Data.M,
		req.Data.Certain, req.Data.Group, req.Data.Seed)
	fmt.Fprintf(h, "params\x00k=%d;iter=%d;r=%d;mcl=%t\x00", req.Params.K, req.Params.Iter, req.Params.R, isMCL)
	fmt.Fprintf(h, "targets\x00%s", strings.Join(req.Targets, "\x01"))
	return specPlan{req: req, key: hex.EncodeToString(h.Sum(nil)), source: source, parsed: parsed, isMCL: isMCL, scheme: scheme}, nil
}

// spec generates the plan's data and assembles the core.Spec. Its errors
// are the data's own (a lineage configuration the generator rejects, a gen
// seed without Boolean targets) and answer 400.
func (p specPlan) spec() (core.Spec, error) {
	req := p.req
	if req.Data.Kind == "gen" {
		return genSpec(req.Data.Seed)
	}
	pts := data.Points(req.Data.N, req.Data.Seed)
	objs, space, err := lineage.Attach(pts, lineage.Config{
		Scheme:          p.scheme,
		GroupSize:       req.Data.Group,
		NumVars:         req.Data.Vars,
		L:               req.Data.L,
		M:               req.Data.M,
		CertainFraction: req.Data.Certain,
		Seed:            req.Data.Seed,
	})
	if err != nil {
		return core.Spec{}, badRequest("data: %v", err)
	}
	spec := core.Spec{
		Source:  p.source,
		Parsed:  p.parsed,
		Objects: objs,
		Space:   space,
		Targets: req.Targets,
	}
	if p.isMCL {
		spec.Params = []int{req.Params.R, req.Params.Iter}
		spec.Matrix = similarityMatrix(objs)
	} else {
		spec.Params = []int{req.Params.K, req.Params.Iter}
		init := make([]int, req.Params.K)
		for i := range init {
			init[i] = i
		}
		spec.InitIndices = init
	}
	return spec, nil
}

// genSpec replays the differential harness's seeded generator: program
// text, input data, and Boolean targets all derive from the seed, making a
// served run directly comparable to the in-process pipeline on the same
// seed (internal/difftest exploits this).
func genSpec(seed int64) (core.Spec, error) {
	p := gen.New(seed)
	var targets []string
	for _, s := range p.Syms() {
		if s.IsBool {
			targets = append(targets, s.Name)
		}
	}
	if len(targets) == 0 {
		return core.Spec{}, badRequest("gen seed %d has no Boolean targets", seed)
	}
	return core.Spec{
		Source:      p.Source(),
		Objects:     p.Input.Objects,
		Space:       p.Input.Space,
		Params:      p.Input.Params,
		InitIndices: p.Input.InitIndices,
		Metric:      p.Input.Metric,
		Targets:     targets,
	}, nil
}

// resolveProgram maps the request to program text — and, for a builtin, to
// the AST the process parsed once (lang.Builtin.Parsed) — and reports
// whether its loadData() binds a weight matrix. Inline source is parsed per
// request, by core. Unlike the CLI, inline source is the only non-builtin
// path — a server must not read local files on client demand; the CLI sends
// a file's text as inline source.
func resolveProgram(req RunRequest) (source string, parsed *lang.Program, isMCL bool, err error) {
	if req.Source != "" {
		return req.Source, nil, strings.Contains(req.Source, "(O, n, M)"), nil
	}
	if b, ok := lang.Builtins[req.Program]; ok {
		return b.Source, b.Parsed(), b.Matrix, nil
	}
	return "", nil, false, badRequest("unknown builtin program %q (want kmedoids, kmeans, or mcl; send inline text via source)", req.Program)
}

// similarityMatrix derives MCL edge weights from pairwise distances of the
// data points (closer points flow more strongly).
func similarityMatrix(objs []lineage.Object) [][]float64 {
	n := len(objs)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = 1
				continue
			}
			d := objs[i].Pos.Sub(objs[j].Pos).Norm()
			m[i][j] = 1 / (1 + d)
		}
	}
	return m
}
