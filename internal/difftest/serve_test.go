package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	"enframe/internal/core"
	"enframe/internal/event"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// servedReply holds the members of a /v1/run reply the served-path tests
// compare.
type servedReply struct {
	Cache      string          `json:"cache"`
	ServedFrom string          `json:"served_from"`
	Targets    json.RawMessage `json:"targets"`
	Trace      json.RawMessage `json:"trace"`
}

// postRun sends one /v1/run request; anything but a 200 is an error.
func postRun(client *http.Client, addr string, req server.RunRequest) (servedReply, error) {
	var out servedReply
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return out, fmt.Errorf("response JSON: %v\n%s", err, buf.Bytes())
	}
	out.Targets = bytes.TrimSpace(out.Targets)
	return out, nil
}

func startServer(t *testing.T) *server.Server {
	t.Helper()
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// directTargets runs the spec the server derives from req in-process, with
// the server's default options (sequential exact, fanout order), and encodes
// the marginals as a /v1/run reply lists them.
func directTargets(t *testing.T, req server.RunRequest) []byte {
	t.Helper()
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		t.Fatalf("seed %d: BuildSpec: %v", req.Data.Seed, err)
	}
	spec.Compile = prob.Options{Strategy: prob.Exact, Workers: 1, JobDepth: 3, Heuristic: prob.FanoutOrder}
	direct, err := core.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("seed %d: direct run: %v", req.Data.Seed, err)
	}
	want := make([]server.RunTarget, 0, len(direct.Result.Targets))
	for _, tb := range direct.Result.Targets {
		want = append(want, server.RunTarget{
			Name: tb.Name, Lower: tb.Lower, Upper: tb.Upper, Estimate: tb.Estimate(),
		})
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return wantJSON
}

// TestServedRunMatchesDirectRun posts seeded generator programs (data kind
// "gen") to a live server and asserts the marginals in the HTTP response
// are byte-identical to a direct in-process core.Run over the very spec the
// server derives from the same seed. This pins the serving layer — request
// decoding, artifact caching, the circuit memo behind every exact reply,
// admission, response encoding — as a pure transport around the pipeline: it
// must not perturb a single bit of the computed probabilities. Each seed is
// sent three times: the first request traces, the other two replay the
// memoized circuit, and all three must carry the direct run's bytes.
func TestServedRunMatchesDirectRun(t *testing.T) {
	srv := startServer(t)
	client := &http.Client{}
	seeds := []int64{1, 2, 3, 5, 8, 13}

	for _, seed := range seeds {
		req := server.RunRequest{
			Data:     server.DataSpec{Kind: "gen", Seed: seed},
			Strategy: prob.Exact,
		}
		wantJSON := directTargets(t, req)
		for pass, want := range []struct{ cache, served string }{
			{"miss", "trace"}, {"hit", "circuit"}, {"hit", "circuit"},
		} {
			req.Trace = pass == 2
			got, err := postRun(client, srv.Addr(), req)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			if got.Cache != want.cache || got.ServedFrom != want.served {
				t.Errorf("seed %d pass %d: cache=%q served_from=%q, want %q/%q",
					seed, pass, got.Cache, got.ServedFrom, want.cache, want.served)
			}
			if !bytes.Equal(got.Targets, wantJSON) {
				t.Errorf("seed %d pass %d (%s): served marginals differ from direct run:\nserved: %s\ndirect: %s",
					seed, pass, want.served, got.Targets, wantJSON)
			}
			if req.Trace && (!bytes.Contains(got.Trace, []byte(`"circuit.replay"`)) || bytes.Contains(got.Trace, []byte(`"explore"`))) {
				t.Errorf("seed %d: traced hit must show a circuit.replay span and no explore span: %s", seed, got.Trace)
			}
		}

		// An approximate request on the artifact that now holds a circuit
		// still compiles, and within its ε of the exact marginals.
		hybrid := req
		hybrid.Trace, hybrid.Strategy, hybrid.Epsilon = false, prob.Hybrid, 0.05
		got, err := postRun(client, srv.Addr(), hybrid)
		if err != nil {
			t.Fatalf("seed %d hybrid: %v", seed, err)
		}
		if got.ServedFrom != "compile" {
			t.Errorf("seed %d hybrid: served_from=%q, want compile", seed, got.ServedFrom)
		}
		var approx, exact []server.RunTarget
		if err := json.Unmarshal(got.Targets, &approx); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantJSON, &exact); err != nil {
			t.Fatal(err)
		}
		for i, tb := range approx {
			if tb.Upper-tb.Lower > 2*hybrid.Epsilon+1e-12 || tb.Lower > exact[i].Lower+1e-12 || tb.Upper < exact[i].Upper-1e-12 {
				t.Errorf("seed %d hybrid %s = [%v, %v] breaks ε=%v around %v", seed, tb.Name, tb.Lower, tb.Upper, hybrid.Epsilon, exact[i].Lower)
			}
		}
	}

	reg := srv.Registry()
	keys := int64(len(seeds))
	if misses, hits := reg.Counter("circuit.cache.misses").Value(), reg.Counter("circuit.cache.hits").Value(); misses != keys || hits != 2*keys {
		t.Errorf("circuit memo over %d keys × 3 exact requests: %d traces, %d hits; want %d and %d", keys, misses, hits, keys, 2*keys)
	}
}

// TestServedConcurrentColdKeyTracesOnce fires 16 first requests at one cold
// key: they coalesce onto one preparation and one trace, and all carry the
// direct run's bytes. Run it under -race.
func TestServedConcurrentColdKeyTracesOnce(t *testing.T) {
	srv := startServer(t)
	req := server.RunRequest{Data: server.DataSpec{Kind: "gen", Seed: 21}, Strategy: prob.Exact}
	wantJSON := directTargets(t, req)

	const callers = 16
	var wg sync.WaitGroup
	traced := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := postRun(&http.Client{}, srv.Addr(), req)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if !bytes.Equal(got.Targets, wantJSON) {
				t.Errorf("caller %d (%s): served marginals differ from direct run:\nserved: %s\ndirect: %s", i, got.ServedFrom, got.Targets, wantJSON)
			}
			traced[i] = got.ServedFrom == "trace"
		}(i)
	}
	wg.Wait()
	n := 0
	for _, tr := range traced {
		if tr {
			n++
		}
	}
	reg := srv.Registry()
	if misses, hits := reg.Counter("circuit.cache.misses").Value(), reg.Counter("circuit.cache.hits").Value(); n != 1 || misses != 1 || hits != callers-1 {
		t.Errorf("%d concurrent first requests: %d said trace, %d traces, %d hits; want 1, 1, %d", callers, n, misses, hits, callers-1)
	}
	if prepared := reg.Counter("server.cache.misses").Value(); prepared != 1 {
		t.Errorf("%d preparations for one key, want 1", prepared)
	}
}

// TestIncompleteTraceIsNeverMemoized pins the boundary case below the
// server: with an input marginal at 0 or 1 the exact walk prunes zero-mass
// branches, the traced circuit is incomplete, and Artifact.Circuit must
// re-trace on every call (cached == false is what the server reports as
// served_from "trace") while staying bit-identical to exact compilation. No
// request the server accepts produces such marginals — lineage draws them
// from [0.25, 0.85] — so the case cannot be driven over HTTP; the server's
// other source of incomplete traces, soft_timeout_ms, is tested in
// internal/server. The seeds are ones whose walk still reaches a zero-mass
// branch before every target is decided: on the others (1, 5, 8 and 13
// among them) the builder's dist fold decides every target first, so the
// trace is complete and the premise would not hold.
func TestIncompleteTraceIsNeverMemoized(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{2, 3, 6, 9, 11, 15} {
		spec, _, err := server.BuildSpec(server.RunRequest{Data: server.DataSpec{Kind: "gen", Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < spec.Space.Len(); v++ {
			spec.Space.SetProb(event.VarID(v), float64(v%2)) // 0, 1, 0, …
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := art.CompileContext(ctx, prob.Options{Strategy: prob.Exact})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			c, res, cached, err := art.Circuit(ctx, prob.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.Complete() {
				t.Fatalf("seed %d: boundary marginals traced a complete circuit", seed)
			}
			if cached {
				t.Errorf("seed %d pass %d: incomplete circuit served from the memo", seed, pass)
			}
			for i, tb := range res.Targets {
				e := exact.Result.Targets[i]
				if math.Float64bits(tb.Lower) != math.Float64bits(e.Lower) || math.Float64bits(tb.Upper) != math.Float64bits(e.Upper) {
					t.Errorf("seed %d pass %d %s: traced [%v, %v], exact [%v, %v]", seed, pass, tb.Name, tb.Lower, tb.Upper, e.Lower, e.Upper)
				}
			}
			if res.Stats.Branches != exact.Result.Stats.Branches || res.Stats.MaskUpdates != exact.Result.Stats.MaskUpdates {
				t.Errorf("seed %d pass %d: trace counters %+v, exact %+v", seed, pass, res.Stats, exact.Result.Stats)
			}
		}
	}
}
