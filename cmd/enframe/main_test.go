package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/server"
	"enframe/internal/translate"
)

// setFlags applies overrides on top of the current flag values and restores
// every run flag afterwards.
func setFlags(t *testing.T, f func()) {
	t.Helper()
	saved := map[string]string{}
	runFlags.VisitAll(func(fl *flag.Flag) { saved[fl.Name] = fl.Value.String() })
	t.Cleanup(func() {
		for name, v := range saved {
			runFlags.Set(name, v)
		}
	})
	f()
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		strategy prob.Strategy
		set      func()
		wantErr  string // empty = valid
	}{
		{"defaults", prob.Exact, func() {}, ""},
		{"workers-zero", prob.Exact, func() { *workersFlag = 0 }, "-workers"},
		{"workers-negative", prob.Exact, func() { *workersFlag = -3 }, "-workers"},
		{"job-zero", prob.Exact, func() { *jobFlag = 0 }, "-job"},
		{"eps-zero-hybrid", prob.Hybrid, func() { *epsFlag = 0 }, "-eps"},
		{"eps-zero-exact-ok", prob.Exact, func() { *epsFlag = 0 }, ""},
		{"top-negative", prob.Exact, func() { *topFlag = -1 }, "-top"},
		{"n-zero", prob.Exact, func() { *nFlag = 0 }, "-n"},
		{"k-zero", prob.Exact, func() { *kFlag = 0 }, "-k"},
		{"iter-zero", prob.Exact, func() { *iterFlag = 0 }, "-iter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setFlags(t, func() { *stratFlag = tc.strategy; tc.set() })
			err := validateFlags()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name flag %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseStrategy parses -strategy through the run flag set: every
// strategy's name sets it, and an unknown name fails flag parsing with an
// error naming the flag (the command exits 2 on it).
func TestParseStrategy(t *testing.T) {
	setFlags(t, func() {})
	runFlags.Init("run", flag.ContinueOnError)
	runFlags.SetOutput(io.Discard)
	t.Cleanup(func() {
		runFlags.Init("run", flag.ExitOnError)
		runFlags.SetOutput(nil)
	})
	for _, want := range []prob.Strategy{prob.Exact, prob.Eager, prob.Lazy, prob.Hybrid} {
		if err := runFlags.Parse([]string{"-strategy", want.String()}); err != nil || *stratFlag != want {
			t.Errorf("-strategy %v: got %v, %v; want %v, nil", want, *stratFlag, err, want)
		}
	}
	for _, bad := range []string{"banana", "circuit"} {
		err := runFlags.Parse([]string{"-strategy", bad})
		if err == nil {
			t.Errorf("-strategy %s parsed", bad)
		} else if !strings.Contains(err.Error(), "-strategy") || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("-strategy %s: error %q does not name the flag and the strategy", bad, err)
		}
	}
}

// TestDumpEventsPrintsBuiltNetwork runs -dump-events on the built-in
// k-medoids program at n=12 in-process: one line per node of the built
// network, in id order with each ⊗ node's c-value, and a binding line for
// every Centre element.
// Printing the event program as an expression tree instead expands the
// shared DAG and runs out of memory at n=3.
func TestDumpEventsPrintsBuiltNetwork(t *testing.T) {
	setFlags(t, func() { *nFlag = 12 })
	req, err := runRequest()
	if err != nil {
		t.Fatal(err)
	}
	spec, _, err := server.BuildSpec(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dumpEvents(&out, spec); err != nil {
		t.Fatal(err)
	}
	b := network.NewBuilder(spec.Space, spec.Metric)
	res, err := translate.TranslateInto(lang.MustParse(spec.Source), translate.External{
		Objects: spec.Objects, Params: spec.Params, InitIndices: spec.InitIndices,
	}, b)
	if err != nil {
		t.Fatal(err)
	}
	net := b.Build()

	nodeLines := 0
	bound := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		if sym, _, ok := strings.Cut(line, " = "); ok {
			bound[sym] = true
			continue
		}
		want := fmt.Sprintf("n%d ", nodeLines)
		if nodeLines < net.NumNodes() && net.Kind[nodeLines] == network.KCondVal {
			// ⊗ nodes share Vals entries; each prints its own c-value.
			want = fmt.Sprintf("n%d condval %s ", nodeLines, net.Vals[net.Arg[nodeLines]])
		}
		if !strings.HasPrefix(line, want) {
			t.Fatalf("node line %d is %q, want prefix %q", nodeLines, line, want)
		}
		nodeLines++
	}
	if nodeLines != net.NumNodes() {
		t.Errorf("%d node lines, the built network has %d nodes", nodeLines, net.NumNodes())
	}
	centres := res.SymbolsWithPrefix("Centre[")
	if len(centres) != 2*12 {
		t.Fatalf("%d Centre symbols, want 24", len(centres))
	}
	for _, sym := range centres {
		if !bound[sym] {
			t.Errorf("no binding line for %s", sym)
		}
	}
}

// TestBuiltinsAnswerWithDefaultTargets runs every builtin program with its
// default targets on the default data, through the run flags' request and
// through POST /v1/run: both must answer, with the same bounds, and some
// marginal must be uncertain.
func TestBuiltinsAnswerWithDefaultTargets(t *testing.T) {
	srv := server.New(server.Config{})
	for name := range lang.Builtins {
		t.Run(name, func(t *testing.T) {
			setFlags(t, func() { *programFlag = name })
			req, err := runRequest()
			if err != nil {
				t.Fatal(err)
			}
			spec, _, err := server.BuildSpec(req)
			if err != nil {
				t.Fatal(err)
			}
			spec.Compile = req.CompileOptions()
			rep, err := core.Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}

			body, _ := json.Marshal(server.RunRequest{Program: name})
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("/v1/run: status %d: %s", rec.Code, rec.Body)
			}
			var resp server.RunResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}

			if len(resp.Targets) != len(rep.Result.Targets) {
				t.Fatalf("/v1/run answers %d targets, the CLI's request %d", len(resp.Targets), len(rep.Result.Targets))
			}
			uncertain := false
			for i, tb := range rep.Result.Targets {
				if got := resp.Targets[i]; got.Name != tb.Name || got.Lower != tb.Lower || got.Upper != tb.Upper {
					t.Fatalf("/v1/run %s = [%v, %v], CLI %s = [%v, %v]", got.Name, got.Lower, got.Upper, tb.Name, tb.Lower, tb.Upper)
				}
				uncertain = uncertain || (tb.Lower > 0 && tb.Upper < 1)
			}
			if !uncertain {
				t.Errorf("no marginal strictly between 0 and 1 among %d targets", len(rep.Result.Targets))
			}
		})
	}
}

// TestRunFlagsReachRequest sets each run flag to a non-default value and
// requires the run's request to change, so no flag that /v1/run has a
// field for is silently dropped; the listed flags only shape local output.
func TestRunFlagsReachRequest(t *testing.T) {
	values := map[string]string{
		"program": "kmeans", "n": "7", "scheme": "mutex", "vars": "9", "l": "5",
		"m": "6", "certain": "0.5", "group": "3", "k": "3", "iter": "2", "r": "3",
		"targets": "InCl[", "strategy": "hybrid", "eps": "0.2", "workers": "2",
		"job": "4", "timeout": "2s", "seed": "9", "remote": "127.0.0.1:1",
		"remote-fallback": "true",
	}
	localOnly := map[string]bool{
		"dump-events": true, "top": true, "trace": true, "trace-out": true,
		"metrics": true, "json": true, "pprof": true,
	}
	base, err := runRequest()
	if err != nil {
		t.Fatal(err)
	}
	runFlags.VisitAll(func(f *flag.Flag) {
		if localOnly[f.Name] {
			return
		}
		v, ok := values[f.Name]
		if !ok {
			t.Errorf("flag -%s is neither mapped onto the request nor listed as local-only", f.Name)
			return
		}
		if err := runFlags.Set(f.Name, v); err != nil {
			t.Fatal(err)
		}
		req, err := runRequest()
		runFlags.Set(f.Name, f.DefValue)
		if err != nil {
			t.Fatalf("-%s %s: %v", f.Name, v, err)
		}
		if reflect.DeepEqual(req, base) {
			t.Errorf("flag -%s %s does not reach the request", f.Name, v)
		}
	})
}
