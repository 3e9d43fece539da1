package stream

import (
	"context"
	"slices"
	"testing"

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
