package stream

import (
	"context"
	"errors"
	"slices"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
)

// TestReplayLeavesArtifactMemoUntouched: a probability push replays into
// the segment's own marginals, never into the Result its artifact memoizes
// and hands to every other caller.
func TestReplayLeavesArtifactMemoUntouched(t *testing.T) {
	ctx := context.Background()
	s, err := NewSession(ctx, Config{Program: "kmedoids", K: 2, Iter: 2, Segments: 2, SegmentN: 5, Group: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seg := s.segs[0]
	_, memo, cached, err := seg.art.Circuit(ctx, prob.Options{Heuristic: s.heur})
	if err != nil || !cached {
		t.Fatalf("segment circuit: cached=%v err=%v, want the memo", cached, err)
	}
	traced := slices.Clone(memo.Targets)
	p := 0.5 * seg.space.Prob(0)
	u, err := s.Apply(ctx, 0, []Delta{{Op: OpProb, Window: &seg.window, Var: seg.space.Name(0), P: &p}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Stats.Replayed == 0 {
		t.Fatalf("probability push did not replay: %+v", u.Stats)
	}
	if slices.Equal(seg.marg, traced) {
		t.Fatal("the push moved no marginal; pick a variable the targets depend on")
	}
	if !slices.Equal(memo.Targets, traced) {
		t.Fatal("the replay wrote into the artifact's memoized Result")
	}
}

// TestPanicMidRecomputeBreaksSession: a panic while Apply or Query rebuilds
// the windows answers a *core.PanicError and breaks the session, whose
// state the panic left half-updated: every later Apply and Query is refused.
func TestPanicMidRecomputeBreaksSession(t *testing.T) {
	ctx := context.Background()
	for _, op := range []string{"stream apply", "stream query"} {
		s, err := NewSession(ctx, Config{Program: "kmedoids", K: 2, Iter: 2, Segments: 2, SegmentN: 5, Group: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		seg := s.segs[1]
		p := 0.5 * seg.space.Prob(0)
		delta := []Delta{{Op: OpProb, Window: &seg.window, Var: seg.space.Name(0), P: &p}}
		apply := func() error { _, err := s.Apply(ctx, s.Seq(), delta); return err }
		query := func() error { _, err := s.Query(ctx); return err }
		// A corrupted dirty segment: its replay dereferences its missing
		// variable space.
		s.segs[0].probsDirty, s.segs[0].space = true, nil

		first := apply
		if op == "stream query" {
			first = query
		}
		var pe *core.PanicError
		if err := first(); !errors.As(err, &pe) || pe.Op != op {
			t.Fatalf("%s over a corrupted segment: err = %v, want a *core.PanicError", op, err)
		}
		for i, use := range []func() error{apply, query} {
			if err := use(); !errors.As(err, &pe) {
				t.Errorf("%s: use %d after the panic: err = %v, want the refusal naming the panic", op, i, err)
			}
		}
	}
}
