package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"time"

	"enframe/internal/core"
	"enframe/internal/obs"
	"enframe/internal/stream"
)

// ticket is what a route's validation step hands the shared request path.
type ticket struct {
	key       string // the artifact key (access log); "stream:<id>" on /v1/stream
	tenant    string // the body's tenant field, resolved against X-Tenant-Id
	fleet     bool   // fleet maintenance (/v1/warm): no tenant accounting or quota
	timeoutMs int    // the requested hard deadline; zero takes the default
	// execute runs the admitted request under its deadline and returns the
	// writer of its 200 reply.
	execute func(ctx context.Context, info *reqInfo) (reply func(http.ResponseWriter), err error)
}

// A route is one POST endpoint's decode-and-validate step. Every error it
// returns answers 400.
type route func(dec *json.Decoder) (*ticket, error)

// routeFor makes a route of a validation step over the body type B.
func routeFor[B any](validate func(B) (*ticket, error)) route {
	return func(dec *json.Decoder) (*ticket, error) {
		var body B
		if err := dec.Decode(&body); err != nil {
			return nil, badRequest("bad request body: %v", err)
		}
		return validate(body)
	}
}

// routes maps each POST endpoint to its route.
func (s *Server) routes() map[string]route {
	return map[string]route{
		"/v1/run":    routeFor(s.runRoute),
		"/v1/whatif": routeFor(s.whatifRoute),
		"/v1/stream": routeFor(s.streamRoute),
		"/v1/warm":   routeFor(s.warmRoute),
	}
}

// parse decodes body strictly (unknown fields are errors) and validates it,
// executing nothing; every error is a *badRequestError.
func (rt route) parse(body io.Reader) (*ticket, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	t, err := rt(dec)
	if err == nil && t.timeoutMs < 0 {
		return nil, badRequest("timeout_ms must be ≥ 0")
	}
	return t, err
}

// serve is the request path of every POST endpoint: method, draining and
// queue-slot checks; the route's bounded decode and validation; tenant
// quota, clamped deadline, worker slot and inflight gauges; the route's
// execute step; and one error-to-status mapping (fail). A panic anywhere
// on the path answers 500; the deferred releases return its slots and
// quota first. See SERVING.md for the status contract.
func (s *Server) serve(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mRequests.Inc()
		info := r.Context().Value(reqInfoKey{}).(*reqInfo) // withTelemetry wraps every route
		defer func() {
			if v := recover(); v != nil {
				if v == any(http.ErrAbortHandler) {
					panic(v)
				}
				s.answerPanic(w, info, "handler", v, debug.Stack())
			}
		}()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		if s.draining.Load() {
			s.mRejDraining.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		// Fast rejection: no free queue slot means the backlog is already
		// MaxInflight+QueueDepth deep — shed immediately instead of stacking
		// goroutines.
		select {
		case s.queueSlots <- struct{}{}:
			defer func() { <-s.queueSlots }()
		default:
			s.fail(w, info, nil, &statusError{http.StatusTooManyRequests, s.mRejQueue,
				fmt.Sprintf("queue full (%d executing + %d waiting)", s.cfg.MaxInflight, s.cfg.QueueDepth)})
			return
		}

		t, err := rt.parse(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			s.fail(w, info, nil, err)
			return
		}
		info.artifact = t.key

		// Fairness: a named tenant at its quota is shed even though global
		// capacity remains, so it cannot monopolise the accept queue.
		if !t.fleet {
			info.tenant = resolveTenant(t.tenant, r.Header.Get(tenantHeader))
			if !s.tenants.acquire(info.tenant) {
				s.fail(w, info, nil, &statusError{http.StatusTooManyRequests, nil,
					fmt.Sprintf("tenant %q over quota (%d slots)", info.tenant, s.cfg.TenantQuota)})
				return
			}
			defer s.tenants.release(info.tenant)
		}

		// The hard deadline, clamped to the server maximum, covers the wait
		// for a worker slot and the whole execute step, and is joined with
		// the client's disconnect signal via the request context.
		timeout := s.cfg.DefaultTimeout
		if t.timeoutMs > 0 {
			timeout = time.Duration(t.timeoutMs) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(r.Context(), min(timeout, s.cfg.MaxTimeout))
		defer cancel()
		select {
		case s.workSlots <- struct{}{}:
			defer func() { <-s.workSlots }()
		case <-ctx.Done():
			s.fail(w, info, ctx.Err(), ctx.Err())
			return
		}
		cur := s.inflight.Add(1)
		s.gInflight.Set(float64(cur))
		s.gInflightPeak.SetMax(float64(cur))
		defer func() { s.gInflight.Set(float64(s.inflight.Add(-1))) }()
		if testHookInflight != nil {
			testHookInflight()
		}

		t0 := time.Now()
		reply, err := t.execute(ctx, info)
		if err != nil {
			s.fail(w, info, ctx.Err(), err)
			return
		}
		s.hLatency.Observe(ms(time.Since(t0)))
		s.mOK.Inc()
		reply(w)
	}
}

// statusError is a refusal answered with its own status: a full queue or a
// tenant over quota (429), and /v1/stream's unknown session (404),
// duplicate session id (409) and full session registry (429).
type statusError struct {
	status int
	count  *obs.Counter // nil counts nothing
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// fail answers err on the POST endpoints' status contract. ctxErr is the
// deadline context's error; it is nil before the deadline starts, so a
// refusal there is never a timeout or a disconnect.
func (s *Server) fail(w http.ResponseWriter, info *reqInfo, ctxErr, err error) {
	var (
		pe  *core.PanicError
		ve  *stream.ValidationError
		bre *badRequestError
		se  *stream.SeqError
		ste *statusError
	)
	switch {
	case errors.As(err, &pe):
		s.answerPanic(w, info, pe.Op, pe.Value, pe.Stack)
	case errors.Is(ctxErr, context.DeadlineExceeded):
		s.mDeadline.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case ctxErr != nil:
		// The client disconnected; the write is best-effort.
		s.mCanceled.Inc()
		w.WriteHeader(statusClientClosedRequest)
	case errors.As(err, &bre), errors.As(err, &ve):
		s.mBadRequest.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &se):
		s.mStreamSeqConflict.Inc()
		writeJSON(w, http.StatusConflict, streamSeqConflict{Error: se.Error(), Seq: se.Want})
	case errors.As(err, &ste):
		if ste.count != nil {
			ste.count.Inc()
		}
		if ste.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, ste.status, "%s", ste.msg)
	case isRemoteError(err):
		// A broken worker plane — unreachable workers, mid-run total loss,
		// protocol version skew, truncated frames — is an upstream failure.
		s.mBadGateway.Inc()
		writeError(w, http.StatusBadGateway, "remote worker plane: %v", err)
	default:
		s.mErrors.Inc()
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// answerPanic answers 500 naming the request, and logs the panic's value
// and stack: a panic recovered on the request path, or one a single-flight
// leader recovered (this request's own or the one it waited on).
func (s *Server) answerPanic(w http.ResponseWriter, info *reqInfo, op string, value any, stack []byte) {
	s.mPanics.Inc()
	if s.accessLog != nil {
		s.accessLog.Error("panic", "request_id", info.id, "op", op,
			"value", fmt.Sprint(value), "stack", string(stack))
	}
	writeError(w, http.StatusInternalServerError, "internal error (request %s)", info.id)
}

// jsonReply returns the writer of a 200 reply encoding v.
func jsonReply(v any) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, v) }
}
