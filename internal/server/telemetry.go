package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"
)

// requestIDHeader carries the per-request correlation identifier: an inbound
// value is echoed back (so callers can stitch server lines into their own
// traces); absent one, the server generates an ID. Every response carries the
// header, and every access-log line carries the same value.
const requestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds what an inbound header may inject into logs.
const maxRequestIDLen = 64

// newRequestID returns a 16-hex-char random identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// reqInfo is the per-request telemetry record: installed by the middleware,
// filled in by the request path (serve), consumed by the access log once the
// response is written.
type reqInfo struct {
	id       string
	artifact string // artifact cache key (content hash); "stream:<id>" on /v1/stream
	cache    string // miss | hit | coalesced
	served   string // circuit | trace | compile; /v1/run only
	remote   bool   // jobs shipped to remote workers
	fallback bool   // remote requested but served locally
	tenant   string // sanitized tenant identity; empty for anonymous
}

type reqInfoKey struct{}

// statusRecorder captures the response status and body size for the access
// log and the per-outcome latency histograms.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Flush keeps streaming handlers (pprof profiles) working under the wrapper.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeForStatus maps a response status onto the serving contract's
// outcome vocabulary (SERVING.md). The same words key the per-outcome
// latency histograms and the access log.
func outcomeForStatus(status int) string {
	switch status {
	case http.StatusOK:
		return "ok"
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusUnprocessableEntity:
		return "error"
	case http.StatusTooManyRequests:
		return "queue_full"
	case statusClientClosedRequest:
		return "client_canceled"
	case http.StatusBadGateway:
		return "bad_gateway"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusInternalServerError:
		return "internal_error"
	}
	return "other"
}

// withTelemetry wraps the route mux with the per-request envelope:
// request-ID propagation, status/bytes recording, per-outcome latency
// histograms on the run route, and the structured access log.
func (s *Server) withTelemetry(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = newRequestID()
		} else if len(id) > maxRequestIDLen {
			id = id[:maxRequestIDLen]
		}
		w.Header().Set(requestIDHeader, id)
		info := &reqInfo{id: id}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, info))
		rec := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		durMs := float64(time.Since(t0)) / float64(time.Millisecond)
		outcome := outcomeForStatus(rec.status)
		if r.URL.Path == "/v1/run" {
			s.reg.Histogram("server.latency_ms."+outcome, latencyBucketsMs).Observe(durMs)
		}
		if s.accessLog == nil {
			return
		}
		attrs := []slog.Attr{
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("route", r.URL.Path),
			slog.Int("status", rec.status),
			slog.String("outcome", outcome),
			slog.Float64("duration_ms", durMs),
			slog.Int64("bytes", rec.bytes),
		}
		if info.artifact != "" {
			attrs = append(attrs,
				slog.String("artifact", shortHash(info.artifact)),
				slog.String("cache", info.cache))
		}
		if info.served != "" {
			attrs = append(attrs, slog.String("served_from", info.served))
		}
		if info.remote || info.fallback {
			attrs = append(attrs,
				slog.Bool("remote", info.remote),
				slog.Bool("fallback", info.fallback))
		}
		if info.tenant != "" {
			attrs = append(attrs, slog.String("tenant", info.tenant))
		}
		s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}

// shortHash truncates a content hash for log lines; 16 hex chars identify an
// artifact beyond any realistic cache population.
func shortHash(h string) string {
	if len(h) > 16 {
		return h[:16]
	}
	return h
}
