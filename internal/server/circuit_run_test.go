package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"enframe/internal/core"
)

func gaugeValue(s *Server, name string) float64 { return s.reg.Gauge(name).Value() }

// targetsOf cuts the "targets" member out of a /v1/run reply.
func targetsOf(t *testing.T, raw []byte) []byte {
	t.Helper()
	var f struct {
		Targets json.RawMessage `json:"targets"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("reply is not JSON: %v\n%s", err, raw)
	}
	return f.Targets
}

// TestExactRunsAnswerFromCircuitMemo is the circuit-first contract in
// counts: N exact requests over K artifacts that fit the LRU run exactly K
// traces and N−K memo lookups. Every exact request bumps exactly one of the
// two circuit counters — they are only touched on the circuit path — so
// hits + misses == N also proves none of them reached Artifact.CompileContext.
func TestExactRunsAnswerFromCircuitMemo(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	const keys, rounds = 3, 4

	first := make([]RunResponse, keys)
	firstTargets := make([][]byte, keys)
	for round := 0; round < rounds; round++ {
		for k := 0; k < keys; k++ {
			req := smallRequest(int64(10+k), 8)
			if round%2 == 1 {
				req.Strategy = "circuit" // the same execution as exact
			}
			status, rr, raw := postRun(t, client, s.Addr(), req)
			if status != http.StatusOK {
				t.Fatalf("round %d key %d: status %d: %s", round, k, status, raw)
			}
			if round == 0 {
				first[k], firstTargets[k] = rr, targetsOf(t, raw)
				if rr.Cache != "miss" || rr.ServedFrom != servedTrace {
					t.Errorf("key %d first request: cache=%q served_from=%q, want miss/trace", k, rr.Cache, rr.ServedFrom)
				}
				if !bytes.Contains(raw, []byte(`"cache":"miss","served_from":"trace"`)) ||
					!bytes.Contains(raw, []byte(`],"stats":{`)) {
					t.Errorf("key %d: served_from must follow cache, and stats follow targets: %s", k, raw)
				}
				continue
			}
			if rr.Cache != "hit" || rr.ServedFrom != servedCircuit {
				t.Errorf("round %d key %d: cache=%q served_from=%q, want hit/circuit", round, k, rr.Cache, rr.ServedFrom)
			}
			if rr.Strategy != req.withDefaults().Strategy {
				t.Errorf("round %d key %d: strategy %q not echoed as requested", round, k, rr.Strategy)
			}
			if !bytes.Equal(targetsOf(t, raw), firstTargets[k]) {
				t.Errorf("round %d key %d: replayed targets differ from the trace's", round, k)
			}
			if rr.Stats != first[k].Stats {
				t.Errorf("round %d key %d: replayed stats %+v, the trace's %+v", round, k, rr.Stats, first[k].Stats)
			}
			if rr.TimingsMs.Compile >= first[k].TimingsMs.Compile || rr.TimingsMs.Compile > 1 {
				t.Errorf("round %d key %d: compile %.3f ms on a memo hit (the trace took %.3f ms)",
					round, k, rr.TimingsMs.Compile, first[k].TimingsMs.Compile)
			}
		}
	}
	n := int64(keys * rounds)
	if misses, hits := counterValue(s, "circuit.cache.misses"), counterValue(s, "circuit.cache.hits"); misses != keys || hits != n-keys {
		t.Errorf("circuit memo: %d traces, %d hits; want %d and %d", misses, hits, keys, n-keys)
	}

	// An approximate request on an artifact that holds a circuit still
	// compiles and leaves the circuit counters alone (its ε-contract against
	// the exact marginals is internal/difftest's to check).
	bytesBefore := gaugeValue(s, "server.cache.bytes")
	req := smallRequest(10, 8)
	req.Strategy, req.Epsilon = "hybrid", 0.05
	status, rr, raw := postRun(t, client, s.Addr(), req)
	if status != http.StatusOK || rr.Cache != "hit" || rr.ServedFrom != servedCompile {
		t.Fatalf("hybrid on a traced artifact: status=%d cache=%q served_from=%q: %s", status, rr.Cache, rr.ServedFrom, raw)
	}
	if got := counterValue(s, "circuit.cache.misses") + counterValue(s, "circuit.cache.hits"); got != n {
		t.Errorf("hybrid request touched the circuit counters (%d, want %d)", got, n)
	}

	// The cache's byte gauge counts the networks and their circuits.
	var want int64
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		want += el.Value.(*cacheEntry).art.Bytes()
	}
	if bytesBefore != float64(want) || want == 0 {
		t.Errorf("server.cache.bytes = %v, want the artifacts' %d", bytesBefore, want)
	}
}

// TestSoftTimeoutTraceIsNotMemoized: soft_timeout_ms runs on the circuit
// path too. A trace it cuts short answers with partial bounds around the
// exact marginals, says timed_out, and is never memoized — the next request
// traces again, completely.
func TestSoftTimeoutTraceIsNotMemoized(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	heavy := RunRequest{
		Program: "kmedoids",
		Data:    DataSpec{N: 24, Vars: 14, L: 8, Seed: 7},
		Params:  ParamSpec{K: 2, Iter: 3},
	}
	timed := heavy
	timed.SoftTimeoutMs = 1
	status, partial, raw := postRun(t, client, s.Addr(), timed)
	if status != http.StatusOK {
		t.Fatalf("soft-timeout run: status %d: %s", status, raw)
	}
	if !partial.TimedOut {
		t.Skipf("the %d-branch trace beat a 1 ms soft timeout", partial.Stats.Branches)
	}
	if partial.ServedFrom != servedTrace {
		t.Errorf("timed-out run served_from %q, want trace", partial.ServedFrom)
	}
	status, full, raw := postRun(t, client, s.Addr(), heavy)
	if status != http.StatusOK || full.TimedOut || full.ServedFrom != servedTrace || full.Cache != "hit" {
		t.Fatalf("run after a timed-out trace: status=%d timed_out=%v served_from=%q cache=%q: %s",
			status, full.TimedOut, full.ServedFrom, full.Cache, raw)
	}
	for i, tb := range partial.Targets {
		exact := full.Targets[i]
		if tb.Lower > exact.Lower || tb.Upper < exact.Upper || tb.Lower < 0 || tb.Upper > 1 {
			t.Errorf("partial %s = [%v, %v] does not enclose the exact [%v, %v]", tb.Name, tb.Lower, tb.Upper, exact.Lower, exact.Upper)
		}
	}
	if status, again, _ := postRun(t, client, s.Addr(), timed); status != http.StatusOK || again.ServedFrom != servedCircuit || again.TimedOut {
		t.Errorf("soft-timeout request on a memoized circuit: status=%d served_from=%q timed_out=%v, want 200/circuit/false",
			status, again.ServedFrom, again.TimedOut)
	}
}

// TestTracedHitShowsReplaySpan: "trace": true goes through the circuit path
// like any other exact request; the span tree says which way it was served.
func TestTracedHitShowsReplaySpan(t *testing.T) {
	s := startTestServer(t, Config{})
	client := &http.Client{}
	req := smallRequest(3, 8)
	req.Trace = true
	names := func(rr RunResponse) string {
		var out []string
		var walk func(sp any)
		b, _ := json.Marshal(rr.Trace)
		var tree map[string]any
		_ = json.Unmarshal(b, &tree)
		walk = func(sp any) {
			m, _ := sp.(map[string]any)
			out = append(out, m["name"].(string))
			kids, _ := m["children"].([]any)
			for _, k := range kids {
				walk(k)
			}
		}
		walk(tree)
		return " " + strings.Join(out, " ") + " "
	}
	_, cold, _ := postRun(t, client, s.Addr(), req)
	if got := names(cold); !strings.Contains(got, " compile ") || !strings.Contains(got, " trace ") || strings.Contains(got, " circuit.replay ") {
		t.Errorf("cold traced request: spans%s— want compile → trace and no circuit.replay", got)
	}
	_, warm, _ := postRun(t, client, s.Addr(), req)
	if got := names(warm); !strings.Contains(got, " circuit.replay ") || strings.Contains(got, " explore ") || strings.Contains(got, " compile ") {
		t.Errorf("warm traced request: spans%s— want circuit.replay and no compile/explore", got)
	}
	if warm.ServedFrom != servedCircuit {
		t.Errorf("warm traced request served_from %q", warm.ServedFrom)
	}
}

// TestCoalescedWaiterGets504LeaderUnaffected: a request coalesced onto
// another's preparation honours its own hard deadline; the leader finishes
// and caches as if nobody had waited.
func TestCoalescedWaiterGets504LeaderUnaffected(t *testing.T) {
	leading, release := make(chan struct{}), make(chan struct{})
	testHookPrepare = func() {
		close(leading)
		<-release
	}
	t.Cleanup(func() { testHookPrepare = nil })
	s := startTestServer(t, Config{})

	leader := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(smallRequest(21, 8))
		resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("leader: %v", err)
			leader <- 0
			return
		}
		resp.Body.Close()
		leader <- resp.StatusCode
	}()
	<-leading
	waiter := smallRequest(21, 8)
	waiter.TimeoutMs = 50
	t0 := time.Now()
	status, _, raw := postRun(t, &http.Client{}, s.Addr(), waiter)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("coalesced waiter: status %d, want 504: %s", status, raw)
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Errorf("waiter overran its 50 ms deadline by %v", waited)
	}
	select {
	case st := <-leader:
		t.Fatalf("leader finished (status %d) while its preparation was still blocked", st)
	default:
	}
	testHookPrepare = nil
	close(release)
	if st := <-leader; st != http.StatusOK {
		t.Fatalf("leader: status %d, want 200", st)
	}
	if status, rr, _ := postRun(t, &http.Client{}, s.Addr(), smallRequest(21, 8)); status != http.StatusOK || rr.Cache != "hit" {
		t.Errorf("request after the leader: status=%d cache=%q, want 200/hit", status, rr.Cache)
	}
}

// TestPreparePanicAnswers500: a panic inside a single-flight leader becomes
// a 500 naming the request, counted in server.panics; the key is not wedged.
func TestPreparePanicAnswers500(t *testing.T) {
	testHookPrepare = func() { panic("boom") }
	t.Cleanup(func() { testHookPrepare = nil })
	s := startTestServer(t, Config{})

	body, _ := json.Marshal(smallRequest(22, 8))
	hreq, _ := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	hreq.Header.Set(requestIDHeader, "req-panic-1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(buf.String(), "req-panic-1") {
		t.Fatalf("panicking preparation: status %d body %s, want 500 naming the request", resp.StatusCode, buf.String())
	}
	if strings.Contains(buf.String(), "boom") {
		t.Errorf("500 body leaks the panic value: %s", buf.String())
	}
	if got := counterValue(s, "server.panics"); got != 1 {
		t.Errorf("server.panics = %d, want 1", got)
	}

	testHookPrepare = nil
	if status, rr, raw := postRun(t, &http.Client{}, s.Addr(), smallRequest(22, 8)); status != http.StatusOK || rr.Cache != "miss" {
		t.Fatalf("request after the panic: status=%d cache=%q, want a fresh 200/miss: %s", status, rr.Cache, raw)
	}
}

// doneSpy reports on entered (buffered; a full buffer drops the report) when
// Done is called. A getOrPrepare waiter's first call to it is on entering
// the select it then blocks in, so a test knows without sleeping that the
// caller is waiting on the leader.
type doneSpy struct {
	context.Context
	entered chan<- struct{}
}

func (c doneSpy) Done() <-chan struct{} {
	select {
	case c.entered <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// TestGetOrPrepareLeaderPanicReleasesWaiters is the wedged-key regression for
// the artifact cache: waiters coalesced onto a panicking leader get its
// *core.PanicError promptly, nothing stays in flight, and no goroutine leaks.
func TestGetOrPrepareLeaderPanicReleasesWaiters(t *testing.T) {
	s := New(Config{})
	before := runtime.NumGoroutine()
	leading, release := make(chan struct{}), make(chan struct{})
	const waiters = 3
	errs := make(chan error, 1+waiters) // one send per caller
	go func() {
		_, _, err := s.cache.getOrPrepare(context.Background(), "k", func() (*core.Artifact, error) {
			close(leading)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-leading
	waiting := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := s.cache.getOrPrepare(doneSpy{context.Background(), waiting}, "k", func() (*core.Artifact, error) {
				return nil, errors.New("a waiter must not prepare")
			})
			errs <- err
		}()
	}
	for i := 0; i < waiters; i++ {
		<-waiting
	}
	close(release)
	for i := 0; i < 1+waiters; i++ {
		select {
		case err := <-errs:
			var pe *core.PanicError
			if !errors.As(err, &pe) || pe.Op != "prepare" {
				t.Fatalf("caller %d: err = %v, want the leader's *core.PanicError", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("caller %d still blocked after the leader panicked", i)
		}
	}
	s.cache.mu.Lock()
	cached := s.cache.ll.Len()
	s.cache.mu.Unlock()
	// Nothing in flight: the next caller leads at once.
	probe := errors.New("probe")
	_, out, err := s.cache.getOrPrepare(context.Background(), "k", func() (*core.Artifact, error) { return nil, probe })
	if inflight := out != core.Miss || err != probe; inflight || cached != 0 {
		t.Errorf("after the panic: in flight %v (%v, %v), %d cached; want none", inflight, out, err, cached)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
