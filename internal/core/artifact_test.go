package core

import (
	"context"
	"testing"

	"enframe/internal/data"
	"enframe/internal/lang"
	"enframe/internal/lineage"
)

func smallSpec(t *testing.T, parsed *lang.Program) Spec {
	t.Helper()
	objs, space, err := lineage.Attach(data.Points(6, 3), lineage.Config{
		Scheme: lineage.Positive, GroupSize: 2, NumVars: 5, L: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Source:      lang.KMedoidsSource,
		Parsed:      parsed,
		Objects:     objs,
		Space:       space,
		Params:      []int{2, 2},
		InitIndices: []int{0, 1},
		Targets:     []string{"Centre["},
	}
}

// TestPrepareParsedSkipsLexParse checks that a pre-parsed program prepares
// to the same artifact as the source text, without re-lexing.
func TestPrepareParsedSkipsLexParse(t *testing.T) {
	ctx := context.Background()
	base, err := PrepareContext(ctx, smallSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	toks, err := lang.Tokens(lang.KMedoidsSource)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseTokens(toks)
	if err != nil {
		t.Fatal(err)
	}
	art, err := PrepareContext(ctx, smallSpec(t, prog))
	if err != nil {
		t.Fatal(err)
	}
	if art.PrepTimings.Lex != 0 || art.PrepTimings.Parse != 0 {
		t.Fatalf("pre-parsed preparation still spent time lexing/parsing: %+v", art.PrepTimings)
	}
	if got, want := art.Net.NumNodes(), base.Net.NumNodes(); got != want {
		t.Fatalf("pre-parsed network has %d nodes, source path %d", got, want)
	}
	if got, want := len(art.Net.Targets), len(base.Net.Targets); got != want {
		t.Fatalf("target count drifted: %d vs %d", got, want)
	}
}
