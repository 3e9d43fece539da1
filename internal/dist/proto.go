package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"enframe/internal/event"
	"enframe/internal/obs"
	"enframe/internal/prob"
)

// Message payloads are JSON inside binary frames: control traffic is tiny,
// and Go's JSON encoder emits shortest-round-trip float64 literals, so
// probability masses survive the wire bit-exactly — the property the
// coordinator's ordered merge depends on.

type helloMsg struct {
	// Version is the coordinator's ProtocolVersion; the worker answers any
	// other with a version MsgError.
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// ClockNs is the coordinator's clock reading at send time, the first
	// half of the per-connection clock-offset handshake.
	ClockNs int64 `json:"clock_ns,omitempty"`
}

type helloAckMsg struct {
	// Version is the worker's ProtocolVersion; the coordinator fails the
	// dial with a VersionError on any other.
	Version int `json:"version"`
	// Slots is the worker's parallel job capacity.
	Slots int `json:"slots"`
	// PID is the worker's OS process ID, shown in trace lane labels.
	PID int `json:"pid,omitempty"`
	// ClockNs is the worker's clock reading at ack time. The
	// coordinator estimates the per-connection offset as
	// ClockNs − midpoint(send hello, receive ack) and uses it to map
	// worker span timestamps onto its own clock.
	ClockNs int64 `json:"clock_ns,omitempty"`
}

// WireOpts is the subset of prob.Options a session fixes on the worker.
// Variable orders are not shipped: order computation is deterministic, so
// both sides derive the identical order from the heuristic.
type WireOpts struct {
	Strategy  string  `json:"strategy"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	JobDepth  int     `json:"job_depth"`
	Heuristic string  `json:"heuristic"`
	TimeoutNs int64   `json:"timeout_ns,omitempty"`
}

// FromOptions projects compile options onto the wire form.
func FromOptions(o prob.Options) WireOpts {
	return WireOpts{
		Strategy:  o.Strategy.String(),
		Epsilon:   o.Epsilon,
		JobDepth:  o.JobDepth,
		Heuristic: o.Heuristic.String(),
		TimeoutNs: int64(o.Timeout),
	}
}

// Options reconstitutes compile options worker-side.
func (wo WireOpts) Options() (prob.Options, error) {
	strat, err := prob.ParseStrategy(wo.Strategy)
	if err != nil {
		return prob.Options{}, fmt.Errorf("dist: %w", err)
	}
	if strat == prob.Circuit {
		return prob.Options{}, fmt.Errorf("dist: strategy circuit does not run on workers")
	}
	h := prob.FanoutOrder // an empty heuristic reads as fanout
	if wo.Heuristic != "" {
		if h, err = prob.ParseOrder(wo.Heuristic); err != nil {
			return prob.Options{}, fmt.Errorf("dist: %w", err)
		}
	}
	return prob.Options{
		Strategy:  strat,
		Epsilon:   wo.Epsilon,
		JobDepth:  wo.JobDepth,
		Heuristic: h,
		Timeout:   time.Duration(wo.TimeoutNs),
	}, nil
}

// SessionKey derives the worker-side session cache key: the artifact content
// hash plus a fingerprint of the fixed compile options.
func SessionKey(artifactKey string, wo WireOpts) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%g\x00%d\x00%s",
		artifactKey, wo.Strategy, wo.Epsilon, wo.JobDepth, wo.Heuristic)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

type loadMsg struct {
	SessionKey  string `json:"session_key"`
	ArtifactKey string `json:"artifact_key"`
	// Spec is the artifact-identifying request (the server.RunRequest JSON
	// shape with per-request fields stripped); the worker resolves it
	// through its injected resolver and verifies the content hash matches
	// ArtifactKey.
	Spec json.RawMessage `json:"spec"`
	Opts WireOpts        `json:"opts"`
}

type loadAckMsg struct {
	SessionKey string `json:"session_key"`
	Targets    int    `json:"targets,omitempty"`
	Err        string `json:"err,omitempty"`
}

type wireAssign struct {
	V uint32 `json:"v"`
	B bool   `json:"b,omitempty"`
}

// wireTrace is the trace context a job frame carries: enough for the
// worker to label its local tracer and for the coordinator to know which
// span the returned subtree belongs under.
type wireTrace struct {
	// ID is the coordinator trace's random hex identifier.
	ID string `json:"id"`
	// Span is the coordinator-side parent span ID the shipped job runs
	// under.
	Span uint64 `json:"span"`
}

type jobMsg struct {
	SessionKey string       `json:"session_key"`
	ID         uint64       `json:"id"`
	Path       []wireAssign `json:"path,omitempty"`
	OI         int          `json:"oi,omitempty"`
	P          float64      `json:"p"`
	E          []float64    `json:"e,omitempty"`
	TimeoutNs  int64        `json:"timeout_ns,omitempty"`
	// Trace, when present (the coordinator is tracing), asks the
	// worker to run the job under a local tracer and ship the span subtree
	// back on the result frame.
	Trace *wireTrace `json:"trace,omitempty"`
}

type wireItem struct {
	K uint8   `json:"k"` // 0 add, 1 fork
	T int32   `json:"t,omitempty"`
	B bool    `json:"b,omitempty"`
	F int32   `json:"f,omitempty"`
	M float64 `json:"m,omitempty"`
}

type wireFork struct {
	Path []wireAssign `json:"path,omitempty"`
	OI   int          `json:"oi,omitempty"`
	P    float64      `json:"p"`
	E    []float64    `json:"e,omitempty"`
}

type wireStats struct {
	Branches     int64 `json:"branches,omitempty"`
	Assignments  int64 `json:"assignments,omitempty"`
	MaskUpdates  int64 `json:"mask_updates,omitempty"`
	BudgetPrunes int64 `json:"budget_prunes,omitempty"`
	MaxDepth     int64 `json:"max_depth,omitempty"`
}

// wireMetric is one piggybacked worker-process metric on a result frame:
// counters travel as deltas since the previous result on the same
// connection (the coordinator sums them into fleet totals), gauges as
// absolute values (the coordinator namespaces them per worker).
type wireMetric struct {
	N string  `json:"n"`
	K uint8   `json:"k,omitempty"` // 0 counter delta, 1 gauge absolute
	V float64 `json:"v"`
}

type resultMsg struct {
	ID       uint64     `json:"id"`
	OK       bool       `json:"ok"`
	Err      string     `json:"err,omitempty"`
	TimedOut bool       `json:"timed_out,omitempty"`
	Items    []wireItem `json:"items,omitempty"`
	Forks    []wireFork `json:"forks,omitempty"`
	Residual []float64  `json:"residual,omitempty"`
	Stats    wireStats  `json:"stats"`
	// Span is the worker-side span subtree for this job (only when the job
	// frame carried a trace context), in the worker's clock.
	Span *obs.SpanExport `json:"span,omitempty"`
	// Metrics are worker-process metric readings piggybacked on the result:
	// no extra frames, and worker telemetry survives worker death up to its
	// last shipped result.
	Metrics []wireMetric `json:"metrics,omitempty"`
}

type pingMsg struct {
	Nonce uint64 `json:"nonce"`
}

type errorMsg struct {
	Code    string `json:"code"`
	Msg     string `json:"msg,omitempty"`
	Version int    `json:"version,omitempty"`
}

func toWireAssigns(path []prob.Assign) []wireAssign {
	if len(path) == 0 {
		return nil
	}
	out := make([]wireAssign, len(path))
	for i, a := range path {
		out[i] = wireAssign{V: uint32(a.Var), B: a.Val}
	}
	return out
}

func fromWireAssigns(path []wireAssign) []prob.Assign {
	if len(path) == 0 {
		return nil
	}
	out := make([]prob.Assign, len(path))
	for i, a := range path {
		out[i] = prob.Assign{Var: event.VarID(a.V), Val: a.B}
	}
	return out
}

func toJobMsg(sessionKey string, j *prob.WireJob) jobMsg {
	return jobMsg{
		SessionKey: sessionKey,
		ID:         j.ID,
		Path:       toWireAssigns(j.Path),
		OI:         j.OI,
		P:          j.P,
		E:          j.E,
		TimeoutNs:  int64(j.Timeout),
	}
}

func (m jobMsg) job() *prob.WireJob {
	return &prob.WireJob{
		ID:      m.ID,
		Path:    fromWireAssigns(m.Path),
		OI:      m.OI,
		P:       m.P,
		E:       m.E,
		Timeout: time.Duration(m.TimeoutNs),
	}
}

func toResultMsg(res *prob.WireResult) resultMsg {
	m := resultMsg{
		ID: res.ID, OK: true, TimedOut: res.TimedOut, Residual: res.Residual,
		Stats: wireStats{
			Branches:     res.Stats.Branches,
			Assignments:  res.Stats.Assignments,
			MaskUpdates:  res.Stats.MaskUpdates,
			BudgetPrunes: res.Stats.BudgetPrunes,
			MaxDepth:     res.Stats.MaxDepth,
		},
	}
	if len(res.Items) > 0 {
		m.Items = make([]wireItem, len(res.Items))
		for i, it := range res.Items {
			m.Items[i] = wireItem{K: uint8(it.Kind), T: it.Target, B: it.IsTrue, F: it.Fork, M: it.Mass}
		}
	}
	if len(res.Forks) > 0 {
		m.Forks = make([]wireFork, len(res.Forks))
		for i, f := range res.Forks {
			m.Forks[i] = wireFork{Path: toWireAssigns(f.Path), OI: f.OI, P: f.P, E: f.E}
		}
	}
	return m
}

func (m *resultMsg) result() (*prob.WireResult, error) {
	res := &prob.WireResult{
		ID: m.ID, TimedOut: m.TimedOut, Residual: m.Residual,
		Stats: prob.JobStats{
			Branches:     m.Stats.Branches,
			Assignments:  m.Stats.Assignments,
			MaskUpdates:  m.Stats.MaskUpdates,
			BudgetPrunes: m.Stats.BudgetPrunes,
			MaxDepth:     m.Stats.MaxDepth,
		},
	}
	if len(m.Items) > 0 {
		res.Items = make([]prob.WireItem, len(m.Items))
		for i, it := range m.Items {
			if it.K > uint8(prob.ItemFork) {
				return nil, fmt.Errorf("dist: result %d: unknown item kind %d", m.ID, it.K)
			}
			if it.K == uint8(prob.ItemFork) && (it.F < 0 || int(it.F) >= len(m.Forks)) {
				return nil, fmt.Errorf("dist: result %d: fork index %d out of range", m.ID, it.F)
			}
			res.Items[i] = prob.WireItem{Kind: prob.ItemKind(it.K), Target: it.T, IsTrue: it.B, Fork: it.F, Mass: it.M}
		}
	}
	if len(m.Forks) > 0 {
		res.Forks = make([]prob.WireFork, len(m.Forks))
		for i, f := range m.Forks {
			res.Forks[i] = prob.WireFork{Path: fromWireAssigns(f.Path), OI: f.OI, P: f.P, E: f.E}
		}
	}
	return res, nil
}

// encode marshals a payload; marshal failures are programming errors.
func encode(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("dist: encode: %v", err))
	}
	return b
}

func decode(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return &FrameError{Op: "decode payload", Err: err}
	}
	return nil
}
