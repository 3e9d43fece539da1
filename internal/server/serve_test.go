package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"enframe/internal/stream"
)

// mustJSON encodes a request body; the request types always marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// routeCase is one POST endpoint of the shared request path.
type routeCase struct {
	path  string
	valid []byte // a body the route answers 200
	// negTimeout is a body with a negative timeout_ms; empty for /v1/warm,
	// which ignores timeout_ms.
	negTimeout string
	// tenanted is false for /v1/warm, which bypasses tenant quotas.
	tenanted bool
}

func routeCases() []routeCase {
	return []routeCase{
		{"/v1/run", mustJSON(smallRequest(1, 6)), `{"timeout_ms":-1}`, true},
		{"/v1/whatif", mustJSON(smallWhatif(1, 8)), `{"timeout_ms":-1}`, true},
		{"/v1/stream", mustJSON(StreamRequest{Op: "create", Config: smallStreamConfig()}), `{"op":"query","timeout_ms":-1}`, true},
		{"/v1/warm", mustJSON(smallRequest(1, 6)), "", false},
	}
}

// serveReq drives one request through the server's handler, optionally as
// a named tenant.
func serveReq(s *Server, method, path string, body []byte, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRequestPathContract holds all four POST endpoints to the shared
// admission and validation contract (SERVING.md), and checks that a 200 on
// any of them counts in server.responses.ok, server.latency_ms and the
// inflight gauges.
func TestRequestPathContract(t *testing.T) {
	for _, rc := range routeCases() {
		t.Run(strings.TrimPrefix(rc.path, "/v1/"), func(t *testing.T) {
			s := New(Config{MaxInflight: 1, QueueDepth: 1, TenantQuota: 1, MaxBodyBytes: 4096})
			expect := func(what string, rec *httptest.ResponseRecorder, want int) {
				t.Helper()
				if rec.Code != want {
					t.Errorf("%s: status %d, want %d: %s", what, rec.Code, want, rec.Body.Bytes())
				}
			}

			expect("valid", serveReq(s, http.MethodPost, rc.path, rc.valid, ""), http.StatusOK)
			if ok, lat := counterValue(s, "server.responses.ok"), s.hLatency.Count(); ok != 1 || lat != 1 {
				t.Errorf("after one 200: responses.ok = %d, latency_ms count = %d, want 1 and 1", ok, lat)
			}
			if peak := gaugeValue(s, "server.inflight.peak"); peak != 1 {
				t.Errorf("inflight.peak = %g, want 1", peak)
			}

			rec := serveReq(s, http.MethodGet, rc.path, nil, "")
			expect("GET", rec, http.StatusMethodNotAllowed)
			if allow := rec.Header().Get("Allow"); allow != http.MethodPost {
				t.Errorf("GET: Allow %q, want POST", allow)
			}

			expect("unknown field", serveReq(s, http.MethodPost, rc.path, []byte(`{"no_such_field":1}`), ""), http.StatusBadRequest)
			huge := []byte(`{"tenant":"` + strings.Repeat("x", 8192) + `"}`)
			expect("body over MaxBodyBytes", serveReq(s, http.MethodPost, rc.path, huge, ""), http.StatusBadRequest)
			if rc.negTimeout != "" {
				expect("negative timeout_ms", serveReq(s, http.MethodPost, rc.path, []byte(rc.negTimeout), ""), http.StatusBadRequest)
			}

			if !s.tenants.acquire("hot") {
				t.Fatal("could not pin the tenant's only slot")
			}
			want := http.StatusTooManyRequests
			if !rc.tenanted {
				want = http.StatusOK
			}
			expect("tenant over quota", serveReq(s, http.MethodPost, rc.path, rc.valid, "hot"), want)
			s.tenants.release("hot")

			for len(s.queueSlots) < cap(s.queueSlots) {
				s.queueSlots <- struct{}{}
			}
			rec = serveReq(s, http.MethodPost, rc.path, rc.valid, "")
			expect("full queue", rec, http.StatusTooManyRequests)
			if rec.Header().Get("Retry-After") == "" {
				t.Error("full queue: no Retry-After")
			}
			for len(s.queueSlots) > 0 {
				<-s.queueSlots
			}

			s.draining.Store(true)
			expect("draining", serveReq(s, http.MethodPost, rc.path, rc.valid, ""), http.StatusServiceUnavailable)
		})
	}
}

// TestPanicOnEveryRouteAnswers500: a panic on the request path answers 500
// naming the request and counts server.panics, and the deferred releases
// return the worker slot, queue slot and tenant quota, so the next request
// is admitted.
func TestPanicOnEveryRouteAnswers500(t *testing.T) {
	t.Cleanup(func() { testHookInflight = nil })
	s := New(Config{MaxInflight: 1, QueueDepth: 1, TenantQuota: 1})
	for i, rc := range routeCases() {
		testHookInflight = func() { panic("boom") }
		rec := serveReq(s, http.MethodPost, rc.path, rc.valid, "t")
		id := rec.Header().Get(requestIDHeader)
		if rec.Code != http.StatusInternalServerError || id == "" || !strings.Contains(rec.Body.String(), id) {
			t.Errorf("%s: status %d body %s, want 500 naming request %q", rc.path, rec.Code, rec.Body.Bytes(), id)
		}
		if got := counterValue(s, "server.panics"); got != int64(i+1) {
			t.Errorf("%s: server.panics = %d, want %d", rc.path, got, i+1)
		}
		if len(s.workSlots) != 0 || len(s.queueSlots) != 0 || s.inflight.Load() != 0 {
			t.Fatalf("%s: slots held after the panic: work %d queue %d inflight %d",
				rc.path, len(s.workSlots), len(s.queueSlots), s.inflight.Load())
		}
		testHookInflight = nil
		if rec := serveReq(s, http.MethodPost, rc.path, rc.valid, "t"); rec.Code != http.StatusOK {
			t.Errorf("%s: request after the panic: status %d: %s", rc.path, rec.Code, rec.Body.Bytes())
		}
	}

	// http.ErrAbortHandler keeps its meaning: the server aborts the response.
	testHookInflight = func() { panic(http.ErrAbortHandler) }
	defer func() {
		if v := recover(); v != any(http.ErrAbortHandler) {
			t.Errorf("ErrAbortHandler was not re-panicked: recovered %v", v)
		}
	}()
	serveReq(s, http.MethodPost, "/v1/run", mustJSON(smallRequest(1, 6)), "")
}

// TestStreamCreateClientCancelIs499: a client that disconnects while its
// session is being built is a 499 and counts server.client_canceled, not a
// deadline.
func TestStreamCreateClientCancelIs499(t *testing.T) {
	t.Cleanup(func() { testHookInflight = nil })
	s := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	testHookInflight = cancel
	body := mustJSON(StreamRequest{Op: "create", Config: smallStreamConfig()})
	req := httptest.NewRequest(http.MethodPost, "/v1/stream", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("status %d, want 499: %s", rec.Code, rec.Body.Bytes())
	}
	if c, d := counterValue(s, "server.client_canceled"), counterValue(s, "server.deadline_exceeded"); c != 1 || d != 0 {
		t.Errorf("client_canceled = %d, deadline_exceeded = %d, want 1 and 0", c, d)
	}
}

// TestStreamPushMsRecordsAcceptedPushesOnly: refused pushes (409 stale
// base_seq, 404 unknown session) leave stream.push_ms alone.
func TestStreamPushMsRecordsAcceptedPushesOnly(t *testing.T) {
	s := New(Config{})
	rec := serveReq(s, http.MethodPost, "/v1/stream", mustJSON(StreamRequest{Op: "create", Config: smallStreamConfig()}), "")
	var created StreamResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	push := StreamRequest{Op: "push", SessionID: created.SessionID, Deltas: []stream.Delta{
		{Op: stream.OpProb, Window: pw(created.Windows[0].Window), Var: created.Windows[0].Vars[0], P: pf(0.5)},
	}}
	if rec := serveReq(s, http.MethodPost, "/v1/stream", mustJSON(push), ""); rec.Code != http.StatusOK {
		t.Fatalf("push: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	h := s.reg.Histogram("stream.push_ms", latencyBucketsMs)
	if got := h.Count(); got != 1 {
		t.Fatalf("stream.push_ms count after one accepted push = %d, want 1", got)
	}
	if rec := serveReq(s, http.MethodPost, "/v1/stream", mustJSON(push), ""); rec.Code != http.StatusConflict {
		t.Fatalf("stale push: status %d, want 409: %s", rec.Code, rec.Body.Bytes())
	}
	push.SessionID = "nope"
	if rec := serveReq(s, http.MethodPost, "/v1/stream", mustJSON(push), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("push to unknown session: status %d, want 404: %s", rec.Code, rec.Body.Bytes())
	}
	if got := h.Count(); got != 1 {
		t.Errorf("stream.push_ms count after refused pushes = %d, want 1", got)
	}
}

// FuzzRequestBody feeds arbitrary bytes to each route's decode-and-validate
// step, executing nothing: it must not panic, and must either accept the
// body or refuse it with a *badRequestError (a 400).
func FuzzRequestBody(f *testing.F) {
	s := New(Config{})
	routes := s.routes()
	paths := make([]string, 0, len(routes))
	for p := range routes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for i, p := range paths {
		for _, rc := range routeCases() {
			if rc.path != p {
				continue
			}
			f.Add(uint8(i), rc.valid)
			f.Add(uint8(i), []byte(rc.negTimeout))
		}
		f.Add(uint8(i), []byte(`{"no_such_field":1}`))
		f.Add(uint8(i), []byte(`{"params":{"k":1125899906842624}}`))
		f.Add(uint8(i), []byte(`{"data":{"n":8},"params":{"k":100}}`))
		f.Add(uint8(i), []byte(`{"data":{"vars":200000000}}`))
		f.Add(uint8(i), []byte(`{"data":{"n":8,"vars":4},"params":{"iter":100000}}`))
		f.Add(uint8(i), []byte(`{"data":{"kind":"gen","seed":7}}`))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		rt := routes[paths[int(which)%len(paths)]]
		tk, err := rt.parse(bytes.NewReader(body))
		if err == nil {
			if tk == nil || tk.execute == nil || tk.timeoutMs < 0 {
				t.Fatalf("accepted body %q yields an unusable ticket", body)
			}
			return
		}
		var bre *badRequestError
		if !errors.As(err, &bre) {
			t.Fatalf("body %q: error %T %v, want *badRequestError", body, err, err)
		}
	})
}
