package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"
	"enframe/internal/translate"
)

// setFlags applies overrides on top of defaults and restores them afterwards.
func setFlags(t *testing.T, f func()) {
	t.Helper()
	saveW, saveJ, saveE, saveT, saveN, saveK, saveI := *workersFlag, *jobFlag, *epsFlag, *topFlag, *nFlag, *kFlag, *iterFlag
	saveS, saveR := *stratFlag, *remoteFlag
	t.Cleanup(func() {
		*workersFlag, *jobFlag, *epsFlag, *topFlag, *nFlag, *kFlag, *iterFlag = saveW, saveJ, saveE, saveT, saveN, saveK, saveI
		*stratFlag, *remoteFlag = saveS, saveR
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
		{"eps-zero-circuit-ok", prob.Circuit, func() { *epsFlag = 0 }, ""},
		{"circuit-workers", prob.Circuit, func() { *workersFlag = 4 }, "-workers"},
		{"circuit-remote", prob.Circuit, func() { *remoteFlag = "127.0.0.1:9000" }, "-remote"},
		{"top-negative", prob.Exact, func() { *topFlag = -1 }, "-top"},
		{"n-zero", prob.Exact, func() { *nFlag = 0 }, "-n"},
		{"k-zero", prob.Exact, func() { *kFlag = 0 }, "-k"},
		{"iter-zero", prob.Exact, func() { *iterFlag = 0 }, "-iter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setFlags(t, tc.set)
			err := validateFlags(tc.strategy)
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

func TestParseStrategy(t *testing.T) {
	for s, want := range map[string]prob.Strategy{
		"exact": prob.Exact, "eager": prob.Eager, "lazy": prob.Lazy,
		"hybrid": prob.Hybrid, "circuit": prob.Circuit,
	} {
		got, err := parseStrategy(s)
		if err != nil || got != want {
			t.Errorf("parseStrategy(%q) = %v, %v; want %v, nil", s, got, err, want)
		}
		// Round-trip: the flag value a strategy prints parses back to it.
		if rt, err := parseStrategy(want.String()); err != nil || rt != want {
			t.Errorf("parseStrategy(%v.String()) = %v, %v; want %v, nil", want, rt, err, want)
		}
	}
	if _, err := parseStrategy("banana"); err == nil {
		t.Error("parseStrategy accepted an unknown strategy")
	} else if !strings.Contains(err.Error(), "-strategy") {
		t.Errorf("unknown-strategy error %q does not name the flag", err)
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
	spec, err := specFromFlags(prob.Exact, nil)
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
