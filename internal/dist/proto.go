package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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

// SessionKey derives the worker-side session cache key: the artifact content
// hash plus a fingerprint of the options a session fixes.
func SessionKey(artifactKey string, o prob.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%g\x00%d\x00%s",
		artifactKey, o.Strategy, o.Epsilon, o.JobDepth, o.Heuristic)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// loadMsg rides on a job frame the worker answered with NoSession: the
// worker loads the session from it before it runs the job.
type loadMsg struct {
	ArtifactKey string `json:"artifact_key"`
	// Spec is the artifact-identifying request (the server.RunRequest JSON
	// shape with per-request fields stripped); the worker resolves it
	// through its injected resolver and verifies the content hash matches
	// ArtifactKey.
	Spec json.RawMessage `json:"spec"`
	// Opts travel as prob.Options' JSON: only the fields a session fixes.
	Opts prob.Options `json:"opts"`
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

// jobMsg ships one job under its per-connection wire ID (the embedded ID);
// the coordinator restores its own job ID on the result.
type jobMsg struct {
	SessionKey string `json:"session_key"`
	prob.WireJob
	// Load, when present, is the session the job runs on: a worker that
	// does not hold SessionKey loads it from here first.
	Load *loadMsg `json:"load,omitempty"`
	// Trace, when present (the coordinator is tracing), asks the
	// worker to run the job under a local tracer and ship the span subtree
	// back on the result frame.
	Trace *wireTrace `json:"trace,omitempty"`
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
	prob.WireResult
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// NoSession answers a job without a load whose session the worker does
	// not hold (never loaded, or evicted since); the coordinator re-sends
	// the job with the load attached.
	NoSession bool `json:"no_session,omitempty"`
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
