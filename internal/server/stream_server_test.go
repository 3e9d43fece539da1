package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/stream"
)

func postStream(t *testing.T, client *http.Client, addr string, req StreamRequest) (int, StreamResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post("http://"+addr+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/stream: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var out StreamResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("bad response JSON: %v\n%s", err, buf.Bytes())
		}
	}
	return resp.StatusCode, out, buf.Bytes()
}

func smallStreamConfig() *stream.Config {
	return &stream.Config{
		Program:  "kmedoids",
		K:        2,
		Iter:     2,
		Segments: 3,
		SegmentN: 5,
		Group:    2,
		Seed:     5,
	}
}

func pf(v float64) *float64 { return &v }
func pw(v int64) *int64     { return &v }

func TestStreamSessionLifecycle(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	status, created, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "create", Config: smallStreamConfig(),
	})
	if status != http.StatusOK {
		t.Fatalf("create: status %d: %s", status, raw)
	}
	if created.SessionID == "" || created.Seq != 0 {
		t.Fatalf("create: bad response %+v", created)
	}
	if len(created.Windows) != 3 || len(created.Marginals) == 0 {
		t.Fatalf("create: windows/marginals missing: %+v", created)
	}

	// Push a probability delta addressed at a real variable.
	v := created.Windows[0].Vars[0]
	status, pushed, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "push", SessionID: created.SessionID, BaseSeq: 0,
		Deltas: []stream.Delta{{Op: stream.OpProb, Window: pw(created.Windows[0].Window), Var: v, P: pf(0.33)}},
	})
	if status != http.StatusOK {
		t.Fatalf("push: status %d: %s", status, raw)
	}
	if pushed.Seq != 1 || pushed.Stats == nil || pushed.Stats.Replayed != 1 {
		t.Fatalf("push: %+v / %+v", pushed, pushed.Stats)
	}

	// Query returns the same state.
	status, queried, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "query", SessionID: created.SessionID,
	})
	if status != http.StatusOK {
		t.Fatalf("query: status %d: %s", status, raw)
	}
	if queried.Seq != 1 {
		t.Fatalf("query: seq %d, want 1", queried.Seq)
	}
	for i := range queried.Marginals {
		if math.Float64bits(queried.Marginals[i].Lower) != math.Float64bits(pushed.Marginals[i].Lower) {
			t.Fatalf("query marginals diverge from push response")
		}
	}

	// Close, then the session is gone.
	status, closed, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "close", SessionID: created.SessionID,
	})
	if status != http.StatusOK || !closed.Closed {
		t.Fatalf("close: status %d: %s", status, raw)
	}
	status, _, _ = postStream(t, client, s.Addr(), StreamRequest{
		Op: "query", SessionID: created.SessionID,
	})
	if status != http.StatusNotFound {
		t.Fatalf("query after close: status %d, want 404", status)
	}
}

func TestStreamSeqConflictIs409(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	_, created, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "create", Config: smallStreamConfig()})
	v := created.Windows[0].Vars[0]
	d := []stream.Delta{{Op: stream.OpProb, Window: pw(created.Windows[0].Window), Var: v, P: pf(0.5)}}

	status, _, _ := postStream(t, client, s.Addr(), StreamRequest{
		Op: "push", SessionID: created.SessionID, BaseSeq: 0, Deltas: d,
	})
	if status != http.StatusOK {
		t.Fatalf("first push: status %d", status)
	}
	// Replaying the same push (same base_seq) must 409 and carry the seq to
	// resume from.
	status, _, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "push", SessionID: created.SessionID, BaseSeq: 0, Deltas: d,
	})
	if status != http.StatusConflict {
		t.Fatalf("duplicate push: status %d, want 409: %s", status, raw)
	}
	var conflict streamSeqConflict
	if err := json.Unmarshal(raw, &conflict); err != nil || conflict.Seq != 1 {
		t.Fatalf("conflict body should carry seq=1: %s", raw)
	}
	if got := s.reg.Counter("stream.seq_conflicts").Value(); got != 1 {
		t.Fatalf("stream.seq_conflicts = %d, want 1", got)
	}
}

// TestStreamStructuralDeltaServesFreshCircuit is the stale-circuit
// regression: a structural delta must invalidate the segment's memoized
// circuit, so a following query reflects the new structure instead of
// replaying the stale one. The inserted tuple carries probability 1 at the
// position of an existing certain point, which measurably moves the
// cluster-membership marginals.
func TestStreamStructuralDeltaServesFreshCircuit(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	cfg := smallStreamConfig()
	cfg.Segments = 4 // keep the dirty fraction below the full-rebuild threshold
	_, created, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "create", Config: cfg})

	w := created.Windows[1].Window
	before := map[string]float64{}
	for _, m := range created.Marginals {
		if m.Window == w {
			before[m.Name] = m.Lower
		}
	}

	// Pile three confident tuples onto one spot of window w.
	var deltas []stream.Delta
	for i := 0; i < 3; i++ {
		deltas = append(deltas, stream.Delta{
			Op: stream.OpInsert, Window: pw(w), Pos: []float64{0.95, 0.95}, P: pf(1),
		})
	}
	status, pushed, raw := postStream(t, client, s.Addr(), StreamRequest{
		Op: "push", SessionID: created.SessionID, BaseSeq: 0, Deltas: deltas,
	})
	if status != http.StatusOK {
		t.Fatalf("push: status %d: %s", status, raw)
	}
	if pushed.Stats.Retraced == 0 {
		t.Fatalf("structural delta did not re-trace any segment: %+v", pushed.Stats)
	}

	// The replayed query must serve the fresh circuit's marginals.
	_, queried, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "query", SessionID: created.SessionID})
	moved := false
	for _, m := range queried.Marginals {
		if m.Window != w {
			continue
		}
		if old, ok := before[m.Name]; ok && math.Float64bits(old) != math.Float64bits(m.Lower) {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("marginals of window %d did not move after structural deltas (stale circuit?)", w)
	}
	// And they must match the push response exactly (replay determinism).
	for i := range queried.Marginals {
		if math.Float64bits(queried.Marginals[i].Lower) != math.Float64bits(pushed.Marginals[i].Lower) {
			t.Fatalf("query and push marginals diverge at %d", i)
		}
	}
}

func TestStreamValidationAndRouting(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}

	// Unknown session: 404.
	status, _, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "push", SessionID: "nope"})
	if status != http.StatusNotFound {
		t.Fatalf("push to unknown session: status %d, want 404", status)
	}
	// Unknown op: 400.
	status, _, _ = postStream(t, client, s.Addr(), StreamRequest{Op: "mutate"})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", status)
	}
	// Bad config: 400.
	status, _, _ = postStream(t, client, s.Addr(), StreamRequest{
		Op: "create", Config: &stream.Config{Program: "mcl"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("mcl create: status %d, want 400", status)
	}
	// Bad delta batch: 400, and the session survives.
	_, created, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "create", Config: smallStreamConfig()})
	status, _, _ = postStream(t, client, s.Addr(), StreamRequest{
		Op: "push", SessionID: created.SessionID, BaseSeq: 0,
		Deltas: []stream.Delta{{Op: stream.OpProb, Var: "no-such-var", P: pf(0.5)}},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("bad delta: status %d, want 400", status)
	}
	status, q, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "query", SessionID: created.SessionID})
	if status != http.StatusOK || q.Seq != 0 {
		t.Fatalf("session state moved after rejected batch: status %d seq %d", status, q.Seq)
	}
}

// TestStreamCreateBoundsConfigShape: a create over /v1/run's request-shape
// caps is a 400 naming the field, rejected before any segment is grounded,
// and the removed dirty_threshold option is an unknown field.
func TestStreamCreateBoundsConfigShape(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	for _, tc := range []struct {
		field string
		cfg   func(*stream.Config)
	}{
		{"iter", func(c *stream.Config) { c.Iter = core.MaxIter + 1 }},
		{"vars", func(c *stream.Config) { c.Vars = core.MaxVars + 1 }},
		{"k", func(c *stream.Config) { c.K = core.MaxK + 1 }},
	} {
		cfg := smallStreamConfig()
		tc.cfg(cfg)
		status, _, raw := postStream(t, client, s.Addr(), StreamRequest{Op: "create", Config: cfg})
		if status != http.StatusBadRequest || !strings.Contains(string(raw), "stream: "+tc.field+" must be") {
			t.Errorf("%s over its cap: status %d: %s, want 400 naming %s", tc.field, status, raw, tc.field)
		}
	}
	resp, err := client.Post("http://"+s.Addr()+"/v1/stream", "application/json",
		strings.NewReader(`{"op":"create","config":{"dirty_threshold":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "dirty_threshold") {
		t.Errorf("create with dirty_threshold: status %d: %s, want 400 naming the field", resp.StatusCode, raw)
	}
	if n := s.cfg.Registry.Counter("stream.sessions.created").Value(); n != 0 {
		t.Errorf("stream.sessions.created = %d after rejected creates", n)
	}
}

func TestStreamRegistryCapAndEviction(t *testing.T) {
	s := startTestServer(t, Config{MaxStreamSessions: 2, StreamIdleTimeout: time.Hour})
	client := &http.Client{}
	mk := func() (int, StreamResponse) {
		st, resp, _ := postStream(t, client, s.Addr(), StreamRequest{Op: "create", Config: smallStreamConfig()})
		return st, resp
	}
	if st, _ := mk(); st != http.StatusOK {
		t.Fatalf("create 1: %d", st)
	}
	if st, _ := mk(); st != http.StatusOK {
		t.Fatalf("create 2: %d", st)
	}
	// Registry full, nothing idle yet: 429.
	if st, _ := mk(); st != http.StatusTooManyRequests {
		t.Fatalf("create at cap: status %d, want 429", st)
	}
	// Once the sessions are older than the idle timeout, creation evicts
	// and succeeds. Aging them by hand keeps the test independent of how
	// long a create takes (the race detector slows it past any short
	// timeout).
	s.streams.mu.Lock()
	for _, e := range s.streams.sessions {
		e.lastUsed = e.lastUsed.Add(-2 * time.Hour)
	}
	s.streams.mu.Unlock()
	if st, _ := mk(); st != http.StatusOK {
		t.Fatalf("create after idle: %d", st)
	}
	if s.reg.Counter("stream.sessions.evicted").Value() == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestStreamQueryWindowsMatchItsSeq runs 300 advancing pushes against a
// loop of queries: every query reply must list the windows its marginals
// belong to, each with its variables and tuples, as one snapshot of the
// session.
func TestStreamQueryWindowsMatchItsSeq(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	created, err := s.streamCreate(ctx, StreamRequest{Op: "create", Config: smallStreamConfig()})
	if err != nil {
		t.Fatal(err)
	}
	id := created.SessionID
	done := make(chan error, 1)
	go func() {
		for seq := uint64(0); seq < 300; seq++ {
			if _, err := s.streamPush(ctx, StreamRequest{
				Op: "push", SessionID: id, BaseSeq: seq,
				Deltas: []stream.Delta{{Op: stream.OpAdvance, N: 1}},
			}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for reads := 0; ; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d consistent query replies", reads)
			return
		default:
		}
		q, err := s.streamQuery(ctx, StreamRequest{Op: "query", SessionID: id})
		if err != nil {
			t.Fatal(err)
		}
		listed := map[int64]bool{}
		for _, w := range q.Windows {
			if w.Vars == nil || w.Tuples == nil {
				t.Fatalf("seq %d: window %d listed without vars or tuples", q.Seq, w.Window)
			}
			listed[w.Window] = true
		}
		seen := map[int64]bool{}
		for _, m := range q.Marginals {
			if !listed[m.Window] {
				t.Fatalf("seq %d: marginal %s of window %d, windows listed %v", q.Seq, m.Name, m.Window, listed)
			}
			seen[m.Window] = true
		}
		if len(seen) != len(listed) {
			t.Fatalf("seq %d: windows %v listed, marginals cover %v", q.Seq, listed, seen)
		}
	}
}
