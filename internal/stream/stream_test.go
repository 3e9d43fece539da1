package stream_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"enframe/internal/core"
	"enframe/internal/prob"
	"enframe/internal/stream"
)

func testConfig() stream.Config {
	return stream.Config{
		Program:  "kmedoids",
		K:        2,
		Iter:     2,
		Segments: 3,
		SegmentN: 5,
		Group:    2,
		Seed:     11,
	}
}

func fp(v float64) *float64 { return &v }

func mustSession(t *testing.T, cfg stream.Config) *stream.Session {
	t.Helper()
	s, err := stream.NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustApply(t *testing.T, s *stream.Session, base uint64, ds []stream.Delta) *stream.Update {
	t.Helper()
	u, err := s.Apply(context.Background(), base, ds)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sameMarginals asserts bitwise equality — the streaming plane's contract
// is byte-identity, not approximate agreement.
func sameMarginals(t *testing.T, got, want []stream.Marginal, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d marginals, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Window != w.Window || g.Name != w.Name ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) {
			t.Fatalf("%s: marginal %d differs:\n  got  %+v (bits %x/%x)\n  want %+v (bits %x/%x)",
				label, i, g, math.Float64bits(g.Lower), math.Float64bits(g.Upper),
				w, math.Float64bits(w.Lower), math.Float64bits(w.Upper))
		}
	}
}

// oracleMarginals recompiles every live window from scratch — fresh
// artifact, fresh trace, fresh evaluation — through the standard pipeline.
func oracleMarginals(t *testing.T, s *stream.Session) []stream.Marginal {
	t.Helper()
	ctx := context.Background()
	var out []stream.Marginal
	for _, w := range s.Windows() {
		spec, err := s.SegmentSpec(w)
		if err != nil {
			t.Fatal(err)
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			t.Fatalf("oracle window %d: %v", w, err)
		}
		_, res, _, err := art.Circuit(ctx, prob.Options{Heuristic: s.Heuristic()})
		if err != nil {
			t.Fatalf("oracle window %d: %v", w, err)
		}
		for _, tb := range res.Targets {
			out = append(out, stream.Marginal{Window: w, Name: tb.Name, Lower: tb.Lower, Upper: tb.Upper})
		}
	}
	return out
}

func TestProbDeltaReplaysWithoutRecompilation(t *testing.T) {
	s := mustSession(t, testConfig())
	vars, err := s.VarNames(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) == 0 {
		t.Fatal("window 0 has no variables")
	}
	u := mustApply(t, s, 0, []stream.Delta{
		{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(0.31)},
	})
	if u.Seq != 1 {
		t.Fatalf("seq = %d, want 1", u.Seq)
	}
	if u.Stats.Replayed != 1 || u.Stats.Reground != 0 || u.Stats.Retraced != 0 {
		t.Fatalf("prob delta did not take the replay fast path: %+v", u.Stats)
	}
	sameMarginals(t, u.Marginals, oracleMarginals(t, s), "prob replay vs scratch")
}

func TestStructuralDeltaRegroundsOnlyDirtySegment(t *testing.T) {
	cfg := testConfig()
	cfg.Segments = 4 // 1 dirty of 4 = 0.25 < default threshold 0.5
	s := mustSession(t, cfg)
	u := mustApply(t, s, 0, []stream.Delta{
		{Op: stream.OpInsert, Window: i64(2), Pos: []float64{0.4, 0.6}, P: fp(0.5)},
	})
	if u.Stats.Full {
		t.Fatalf("single-segment insert triggered full recompilation: %+v", u.Stats)
	}
	if u.Stats.Reground != 1 || u.Stats.Retraced != 1 {
		t.Fatalf("insert should re-ground and re-trace exactly one segment: %+v", u.Stats)
	}
	sameMarginals(t, u.Marginals, oracleMarginals(t, s), "insert vs scratch")

	// Delete the inserted tuple again; still one dirty segment.
	ids, err := s.TupleIDs(2)
	if err != nil {
		t.Fatal(err)
	}
	u = mustApply(t, s, u.Seq, []stream.Delta{
		{Op: stream.OpDelete, Window: i64(2), ID: ids[len(ids)-1]},
	})
	if u.Stats.Reground != 1 || u.Stats.Full {
		t.Fatalf("delete stats: %+v", u.Stats)
	}
	sameMarginals(t, u.Marginals, oracleMarginals(t, s), "delete vs scratch")
}

func TestDirtyThresholdFallsBackToFullRecompile(t *testing.T) {
	cfg := testConfig()
	cfg.Segments = 3
	s := mustSession(t, cfg)
	// Two dirty of three = 0.67 >= 0.5 → full rebuild.
	u := mustApply(t, s, 0, []stream.Delta{
		{Op: stream.OpInsert, Window: i64(0), Pos: []float64{0.2, 0.8}, P: fp(0.4)},
		{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.7, 0.1}, P: fp(0.6)},
	})
	if !u.Stats.Full {
		t.Fatalf("dirty fraction %.2f did not trigger full recompilation: %+v", u.Stats.DirtyFraction, u.Stats)
	}
	if u.Stats.Reground != 3 {
		t.Fatalf("full recompilation should re-ground all 3 segments: %+v", u.Stats)
	}
	sameMarginals(t, u.Marginals, oracleMarginals(t, s), "full fallback vs scratch")
}

func TestWindowAdvance(t *testing.T) {
	s := mustSession(t, testConfig())
	u := mustApply(t, s, 0, []stream.Delta{{Op: stream.OpAdvance, N: 2}})
	wins := s.Windows()
	if len(wins) != 3 || wins[0] != 2 || wins[2] != 4 {
		t.Fatalf("windows after advance 2 = %v, want [2 3 4]", wins)
	}
	sameMarginals(t, u.Marginals, oracleMarginals(t, s), "advance vs scratch")
}

func TestSequenceDiscipline(t *testing.T) {
	s := mustSession(t, testConfig())
	vars, _ := s.VarNames(0)
	d := []stream.Delta{{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(0.2)}}

	before := mustApply(t, s, 0, d) // seq 0 → 1

	// Duplicate delivery: same base again.
	_, err := s.Apply(context.Background(), 0, d)
	var se *stream.SeqError
	if !errors.As(err, &se) || se.Want != 1 || se.Got != 0 {
		t.Fatalf("duplicate push: err = %v, want SeqError{Want:1, Got:0}", err)
	}
	// Out-of-order delivery: base from the future.
	_, err = s.Apply(context.Background(), 7, d)
	if !errors.As(err, &se) || se.Want != 1 || se.Got != 7 {
		t.Fatalf("future push: err = %v, want SeqError{Want:1, Got:7}", err)
	}
	// Rejected pushes must not have moved anything.
	if s.Seq() != 1 {
		t.Fatalf("seq moved to %d after rejected pushes", s.Seq())
	}
	q, err := s.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameMarginals(t, q.Marginals, before.Marginals, "state after rejected pushes")
}

func TestBatchValidationIsAtomic(t *testing.T) {
	s := mustSession(t, testConfig())
	vars, _ := s.VarNames(0)
	before, _ := s.Query(context.Background())
	// First delta is valid, second is not: nothing may stick.
	_, err := s.Apply(context.Background(), 0, []stream.Delta{
		{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(0.9)},
		{Op: stream.OpProb, Window: i64(0), Var: "no-such-var", P: fp(0.5)},
	})
	if err == nil {
		t.Fatal("invalid batch was accepted")
	}
	if s.Seq() != 0 {
		t.Fatalf("seq = %d after rejected batch, want 0", s.Seq())
	}
	after, _ := s.Query(context.Background())
	sameMarginals(t, after.Marginals, before.Marginals, "state after rejected batch")
}

func TestBatchCannotTouchWindowAdmittedInSameBatch(t *testing.T) {
	s := mustSession(t, testConfig())
	_, err := s.Apply(context.Background(), 0, []stream.Delta{
		{Op: stream.OpAdvance, N: 1},
		{Op: stream.OpInsert, Pos: []float64{0.1, 0.2}, P: fp(0.5)}, // nil window = newest = just admitted
	})
	if err == nil {
		t.Fatal("delta addressing a window admitted in the same batch was accepted")
	}
	if s.Seq() != 0 {
		t.Fatalf("seq = %d after rejected batch, want 0", s.Seq())
	}
}

// TestBatchValidationVerdicts pins batch validation's verdict on the paths a
// batch can take — probability-only, prob after an insert or a delete of the
// same window, across an advance — and the exact error text of every
// rejection, which clients see in the 400 body.
func TestBatchValidationVerdicts(t *testing.T) {
	s := mustSession(t, testConfig())
	vars, _ := s.VarNames(1)
	ids, _ := s.TupleIDs(1)
	fresh := "+v5" // the variable an insert into a 5-tuple window creates
	cases := []struct {
		name  string
		batch []stream.Delta
		want  string // "" accepts
	}{
		{"prob only", []stream.Delta{
			{Op: stream.OpProb, Window: i64(1), Var: vars[0], P: fp(0.3)},
			{Op: stream.OpProb, Var: vars[0], P: fp(0.6)},
		}, ""},
		{"unknown var", []stream.Delta{
			{Op: stream.OpProb, Window: i64(1), Var: vars[0], P: fp(0.3)},
			{Op: stream.OpProb, Window: i64(1), Var: "nope", P: fp(0.3)},
		}, `stream: delta 1: window 1 has no variable "nope"`},
		{"var before its insert", []stream.Delta{
			{Op: stream.OpProb, Window: i64(1), Var: fresh, P: fp(0.3)},
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
		}, `stream: delta 0: window 1 has no variable "+v5"`},
		{"var after its insert", []stream.Delta{
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
			{Op: stream.OpProb, Window: i64(1), Var: fresh, P: fp(0.3)},
		}, ""},
		{"second insert's var", []stream.Delta{
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.3, 0.4}, P: fp(0.5)},
			{Op: stream.OpProb, Window: i64(1), Var: "+v6", P: fp(0.3)},
		}, ""},
		{"var past the batch's inserts", []stream.Delta{
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
			{Op: stream.OpProb, Window: i64(1), Var: "+v6", P: fp(0.3)},
		}, `stream: delta 1: window 1 has no variable "+v6"`},
		{"non-canonical inserted name", []stream.Delta{
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
			{Op: stream.OpProb, Window: i64(1), Var: "+v05", P: fp(0.3)},
		}, `stream: delta 1: window 1 has no variable "+v05"`},
		{"inserted var in another window", []stream.Delta{
			{Op: stream.OpInsert, Window: i64(1), Pos: []float64{0.1, 0.2}, P: fp(0.5)},
			{Op: stream.OpProb, Window: i64(0), Var: fresh, P: fp(0.3)},
		}, `stream: delta 1: window 0 has no variable "+v5"`},
		{"var after a delete", []stream.Delta{
			{Op: stream.OpDelete, Window: i64(1), ID: ids[0]},
			{Op: stream.OpProb, Window: i64(1), Var: vars[0], P: fp(0.3)},
		}, ""},
		{"missing var", []stream.Delta{{Op: stream.OpProb, Window: i64(1), P: fp(0.3)}},
			`stream: delta 0: prob needs var`},
		{"p out of range", []stream.Delta{{Op: stream.OpProb, Window: i64(1), Var: vars[0], P: fp(1.5)}},
			`stream: delta 0: prob needs p in [0, 1]`},
		{"window not live", []stream.Delta{{Op: stream.OpProb, Window: i64(7), Var: vars[0], P: fp(0.3)}},
			`stream: delta 0: window 7 is not live (live: [0 1 2])`},
		{"window retired by advance", []stream.Delta{
			{Op: stream.OpAdvance},
			{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(0.3)},
		}, `stream: delta 1: window 0 is not live (live: [1 2 3])`},
		{"window admitted by advance", []stream.Delta{
			{Op: stream.OpAdvance},
			{Op: stream.OpProb, Var: vars[0], P: fp(0.3)},
		}, `stream: delta 1: cannot target window 3 admitted earlier in this batch; push it in a following batch`},
		{"unknown op", []stream.Delta{{Op: "merge"}},
			`stream: delta 0: unknown op "merge" (want prob, insert, delete, or advance)`},
	}
	for _, c := range cases {
		// Each accepted batch changes the session, so each case gets its own.
		_, err := mustSession(t, testConfig()).Apply(context.Background(), 0, c.batch)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case c.want != "" && err.Error() != c.want:
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func TestDeleteCannotDropBelowK(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentN = 2 // already at k
	s := mustSession(t, cfg)
	ids, _ := s.TupleIDs(0)
	_, err := s.Apply(context.Background(), 0, []stream.Delta{
		{Op: stream.OpDelete, Window: i64(0), ID: ids[0]},
	})
	if err == nil {
		t.Fatal("delete below k was accepted")
	}
}

// TestDeterministicReplay drives two independent sessions with the same
// config through the same delta-log prefix and demands byte-identical
// marginals at every step — the replicated-replay contract.
func TestDeterministicReplay(t *testing.T) {
	a := mustSession(t, testConfig())
	b := mustSession(t, testConfig())
	vars, _ := a.VarNames(1)
	batches := [][]stream.Delta{
		{{Op: stream.OpProb, Window: i64(1), Var: vars[0], P: fp(0.77)}},
		{{Op: stream.OpInsert, Window: i64(2), Pos: []float64{0.3, 0.9}, P: fp(0.25)}},
		{{Op: stream.OpAdvance}},
		nil, // rebuilt below once the advance reveals the newest window
	}
	seq := uint64(0)
	for _, batch := range batches {
		if batch == nil {
			// After the advance, pick the newest window's first variable
			// and push a boundary probability (exercises the incomplete-
			// circuit path on both replicas).
			nv, err := a.VarNames(a.Windows()[len(a.Windows())-1])
			if err != nil {
				t.Fatal(err)
			}
			batch = []stream.Delta{{Op: stream.OpProb, Var: nv[0], P: fp(0)}}
		}
		ua := mustApply(t, a, seq, batch)
		ub := mustApply(t, b, seq, batch)
		sameMarginals(t, ua.Marginals, ub.Marginals, "replica divergence")
		seq = ua.Seq
	}
}

// TestThresholdDoesNotChangeResults runs the same log through an always-full
// session and a never-full session: incrementality is an optimisation, not
// a semantics.
func TestThresholdDoesNotChangeResults(t *testing.T) {
	full := testConfig()
	full.DirtyThreshold = 1e-9 // any dirt → rebuild everything
	incr := testConfig()
	incr.DirtyThreshold = -1 // never fall back
	a := mustSession(t, full)
	b := mustSession(t, incr)
	vars, _ := a.VarNames(0)
	batches := [][]stream.Delta{
		{{Op: stream.OpInsert, Window: i64(0), Pos: []float64{0.9, 0.9}, P: fp(0.5)}},
		{{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(1)}},
		{{Op: stream.OpDelete, Window: i64(1), ID: 0}},
		{{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(0.42)}},
	}
	seq := uint64(0)
	for _, batch := range batches {
		ua := mustApply(t, a, seq, batch)
		ub := mustApply(t, b, seq, batch)
		sameMarginals(t, ua.Marginals, ub.Marginals, "threshold divergence")
		seq = ua.Seq
	}
}

// TestConcurrentQueries hammers Query from many goroutines while Apply
// runs; meaningful under -race.
func TestConcurrentQueries(t *testing.T) {
	s := mustSession(t, testConfig())
	vars, _ := s.VarNames(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Query(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	seq := uint64(0)
	for i := 0; i < 8; i++ {
		p := 0.1 + float64(i)*0.1
		u := mustApply(t, s, seq, []stream.Delta{
			{Op: stream.OpProb, Window: i64(0), Var: vars[0], P: fp(p)},
		})
		seq = u.Seq
	}
	close(stop)
	wg.Wait()
}

func i64(v int64) *int64 { return &v }
