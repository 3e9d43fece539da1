package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRequestIDEchoAndGenerate checks the correlation-ID contract: an inbound
// X-Request-Id comes back verbatim (truncated at 64), and absent one the
// server mints a 16-hex-char ID.
func TestRequestIDEchoAndGenerate(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{Timeout: 10 * time.Second}

	req, _ := http.NewRequest(http.MethodGet, "http://"+s.Addr()+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-7")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-7" {
		t.Errorf("inbound ID not echoed: got %q", got)
	}

	resp2, err := client.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id := resp2.Header.Get("X-Request-Id")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated ID %q, want 16 hex chars", id)
	}

	long := strings.Repeat("x", 200)
	req3, _ := http.NewRequest(http.MethodGet, "http://"+s.Addr()+"/healthz", nil)
	req3.Header.Set("X-Request-Id", long)
	resp3, err := client.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); len(got) != maxRequestIDLen {
		t.Errorf("oversized inbound ID echoed at %d chars, want %d", len(got), maxRequestIDLen)
	}
}

// syncBuffer serialises writes so the slog handler can be read back safely
// after requests complete.
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func newSyncBuffer() *syncBuffer {
	sb := &syncBuffer{mu: make(chan struct{}, 1)}
	sb.mu <- struct{}{}
	return sb
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	<-sb.mu
	defer func() { sb.mu <- struct{}{} }()
	return sb.buf.Write(p)
}

func (sb *syncBuffer) Lines() []string {
	<-sb.mu
	defer func() { sb.mu <- struct{}{} }()
	return strings.Split(strings.TrimSpace(sb.buf.String()), "\n")
}

// TestAccessLogFields runs one cache-missing and one cache-hitting request
// and checks the structured access-log lines carry the documented schema:
// request_id, method, route, status, outcome, duration, bytes, and the
// run-specific artifact/cache attributes.
func TestAccessLogFields(t *testing.T) {
	sb := newSyncBuffer()
	s := startTestServer(t, Config{AccessLog: slog.New(slog.NewJSONHandler(sb, nil))})
	client := &http.Client{Timeout: 30 * time.Second}

	status, _, _ := postRun(t, client, s.Addr(), smallRequest(1, 12))
	if status != http.StatusOK {
		t.Fatalf("run status %d", status)
	}
	status, _, _ = postRun(t, client, s.Addr(), smallRequest(1, 12))
	if status != http.StatusOK {
		t.Fatalf("rerun status %d", status)
	}

	lines := sb.Lines()
	if len(lines) < 2 {
		t.Fatalf("got %d access-log lines, want >= 2", len(lines))
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v\n%s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v\n%s", err, lines[1])
	}
	for _, k := range []string{"request_id", "method", "route", "status", "outcome", "duration_ms", "bytes", "artifact", "cache"} {
		if _, ok := first[k]; !ok {
			t.Errorf("access log missing %q: %s", k, lines[0])
		}
	}
	if first["route"] != "/v1/run" || first["method"] != http.MethodPost {
		t.Errorf("route/method = %v/%v", first["route"], first["method"])
	}
	if first["outcome"] != "ok" {
		t.Errorf("outcome = %v, want ok", first["outcome"])
	}
	if first["cache"] != "miss" {
		t.Errorf("first run cache = %v, want miss", first["cache"])
	}
	if c := second["cache"]; c != "hit" && c != "coalesced" {
		t.Errorf("second run cache = %v, want hit or coalesced", c)
	}
	if first["artifact"] != second["artifact"] {
		t.Errorf("artifact differs across identical requests: %v vs %v", first["artifact"], second["artifact"])
	}
	if first["request_id"] == second["request_id"] {
		t.Errorf("request IDs not unique: %v", first["request_id"])
	}
}

// TestRunTraceOptIn checks the "trace": true request field returns the span
// tree inline, and that the default path carries no trace payload.
func TestRunTraceOptIn(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{Timeout: 30 * time.Second}

	req := smallRequest(2, 12)
	req.Trace = true
	status, rr, raw := postRun(t, client, s.Addr(), req)
	if status != http.StatusOK {
		t.Fatalf("traced run status %d: %s", status, raw)
	}
	if rr.Trace == nil {
		t.Fatalf("trace:true returned no trace: %s", raw)
	}
	if rr.Trace.Name != "run" {
		t.Errorf("trace root name %q, want \"run\"", rr.Trace.Name)
	}
	if len(rr.Trace.Children) == 0 {
		t.Error("trace root has no children")
	}

	status, rr2, _ := postRun(t, client, s.Addr(), smallRequest(2, 12))
	if status != http.StatusOK {
		t.Fatalf("untraced run status %d", status)
	}
	if rr2.Trace != nil {
		t.Error("untraced run returned a trace payload")
	}
}

// TestMetricsContentNegotiation checks the two /metrics forms: JSON on
// Accept: application/json or ?format=json, Prometheus text on everything
// else, curl's Accept: */* included.
func TestMetricsContentNegotiation(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{Timeout: 10 * time.Second}
	if st, _, _ := postRun(t, client, s.Addr(), smallRequest(3, 12)); st != http.StatusOK {
		t.Fatalf("warmup run status %d", st)
	}

	get := func(accept, query string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, "http://"+s.Addr()+"/metrics"+query, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.String()
	}

	resp, body := get("text/plain", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prometheus Content-Type = %q", ct)
	}
	if !strings.Contains(body, "# TYPE ") || !strings.Contains(body, "server_latency_ms_ok_bucket{le=") {
		t.Errorf("prometheus body missing TYPE lines or latency histogram:\n%s", body)
	}

	resp, body = get("application/json", "")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("json Content-Type = %q", ct)
	}
	var vals []map[string]any
	if err := json.Unmarshal([]byte(body), &vals); err != nil {
		t.Fatalf("json body does not parse: %v\n%s", err, body)
	}
	found := false
	for _, v := range vals {
		if v["name"] == "server.latency_ms.ok" && v["kind"] == "histogram" {
			found = true
		}
	}
	if !found {
		t.Errorf("json metrics missing server.latency_ms.ok histogram")
	}

	// curl-style Accept: */* and no Accept at all get Prometheus text too.
	for _, accept := range []string{"*/*", ""} {
		resp, body = get(accept, "")
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("Accept %q: Content-Type = %q, want prometheus", accept, ct)
		}
		if !strings.Contains(body, "# TYPE ") {
			t.Errorf("Accept %q: default /metrics is not prometheus text:\n%s", accept, body)
		}
	}

	// Explicit query parameters override Accept, both ways.
	_, body = get("application/json", "?format=prometheus")
	if !strings.Contains(body, "# TYPE ") {
		t.Errorf("?format=prometheus ignored:\n%s", body)
	}
	resp, _ = get("text/plain", "?format=json")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("?format=json ignored: Content-Type = %q", ct)
	}
}
