// Package stream is the incremental data plane: long-lived sessions that
// hold a compiled artifact per live window segment and a monotonic sequence
// number. A session keeps nothing per push: its memory is its live segments,
// and the client's own log of the batches it pushed is the replay record.
// Probability-only deltas replay each affected segment's memoized decision
// circuit at the new marginals with zero recompilation — byte-identical to
// compiling from scratch, because the exact compiler's tree shape is
// probability-independent for complete circuits and replay skips zero-mass
// subtrees exactly like a fresh trace does. Structural deltas (tuple
// insert/delete, window advance) re-ground only the dirty segments through
// the fused emitter, and an exact structural comparison of the re-grounded
// network with the previous one decides whether the old circuit is still
// valid or a re-trace is due.
package stream

import (
	"context"
	"fmt"
	"slices"
	"time"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/network"
	"enframe/internal/prob"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/lineage"
)

// Config describes a streaming session. The zero value of most fields picks
// a sensible default; Validate reports the few combinations that cannot
// work.
type Config struct {
	// Program names a builtin ("kmedoids" or "kmeans"); Source, when
	// non-empty, is an inline program and wins. MCL is not streamable —
	// its input is a similarity matrix, not a tuple window.
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`

	// K and Iter are the clustering parameters (k, iterations).
	K    int `json:"k,omitempty"`
	Iter int `json:"iter,omitempty"`

	// Targets are result-name prefixes to report; the default is the
	// builtin's result (lang.Builtins), ["Centre["] for inline source.
	Targets []string `json:"targets,omitempty"`

	// Segments is the number of live window segments; SegmentN the number
	// of feed tuples each admits. Defaults 4 and 8.
	Segments int `json:"segments,omitempty"`
	SegmentN int `json:"segment_n,omitempty"`

	// MaxSegmentTuples caps a segment's size after inserts; default 64.
	MaxSegmentTuples int `json:"max_segment_tuples,omitempty"`

	// Lineage shape of the feed (see lineage.Config). Scheme is one of
	// "independent", "positive", "mutex", "conditional"; default
	// independent.
	Scheme  string  `json:"scheme,omitempty"`
	Vars    int     `json:"vars,omitempty"`
	L       int     `json:"l,omitempty"`
	M       int     `json:"m,omitempty"`
	Certain float64 `json:"certain,omitempty"`
	Group   int     `json:"group,omitempty"`

	// Seed drives the deterministic feed: segment contents are a pure
	// function of (Config, window index).
	Seed int64 `json:"seed,omitempty"`

	// Order selects the variable-order heuristic: "fanout" (default) or
	// "input".
	Order prob.OrderHeuristic `json:"order,omitempty"`
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Program == "" && out.Source == "" {
		out.Program = "kmedoids"
	}
	if out.K == 0 {
		out.K = 2
	}
	if out.Iter == 0 {
		out.Iter = 2
	}
	if len(out.Targets) == 0 {
		out.Targets = lang.DefaultTargets(out.Program, out.Source)
	}
	if out.Segments == 0 {
		out.Segments = 4
	}
	if out.SegmentN == 0 {
		out.SegmentN = 8
	}
	if out.MaxSegmentTuples == 0 {
		out.MaxSegmentTuples = 64
	}
	if out.Scheme == "" {
		out.Scheme = "independent"
	}
	return out
}

// program returns the session's parsed program: inline source parsed for
// this session, or a builtin's AST, parsed once per process and shared.
func (c *Config) program() (*lang.Program, error) {
	if c.Source != "" {
		toks, err := lang.Tokens(c.Source)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		prog, err := lang.ParseTokens(toks)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		return prog, nil
	}
	b, ok := lang.Builtins[c.Program]
	if !ok {
		return nil, fmt.Errorf("stream: unknown program %q", c.Program)
	}
	if b.Matrix {
		return nil, fmt.Errorf("stream: %s is not streamable (matrix-shaped input); use kmedoids or kmeans", c.Program)
	}
	return b.Parsed(), nil
}

// segment is one live window: its tuples, variable space, prepared
// artifact, and (when complete) the consed decision circuit.
type segment struct {
	window int64
	objs   []lineage.Object
	space  *event.Space
	varIdx map[string]event.VarID
	nextID int // next tuple id / insert-variable suffix

	art  *core.Artifact
	circ *circuit.Circuit // nil until built, or while incomplete
	// marg is the segment's own copy of its target bounds, which a replay
	// rewrites in place; probs and bounds are the replay's probability
	// vector and lower/upper scratch, reused from push to push.
	marg   []prob.TargetBound
	probs  []float64
	bounds []float64

	dirty      bool // structure changed: re-ground and maybe re-trace
	probsDirty bool // only marginals changed: replay the circuit
}

// Session is a streaming session. All methods are safe for concurrent use;
// the session serialises pushes, so a batch observes the state left by the
// previous one.
type Session struct {
	cfg    Config
	scheme lineage.Scheme
	parsed *lang.Program

	mu         chan struct{} // capacity-1 semaphore: ctx-aware mutex
	segs       []*segment    // oldest → newest
	nextWindow int64
	seq        uint64 // deltas applied so far; a push must name it as its base
	broken     error  // sticky compile failure; nil while healthy
}

// Marginal is one reported target bound, namespaced by window.
type Marginal struct {
	Window int64   `json:"window"`
	Name   string  `json:"name"`
	Lower  float64 `json:"lower"`
	Upper  float64 `json:"upper"`
}

// Stats describes what one Apply actually did.
type Stats struct {
	Applied        int     `json:"applied"`         // deltas in the batch
	Replayed       int     `json:"replayed"`        // segments whose circuit replayed
	Reground       int     `json:"reground"`        // segments re-grounded through the emitter
	Retraced       int     `json:"retraced"`        // segments whose circuit was re-traced
	ReusedCircuits int     `json:"reused_circuits"` // re-grounds that kept the old circuit (equal network)
	GroundMs       float64 `json:"ground_ms"`
	TraceMs        float64 `json:"trace_ms"`
	ReplayMs       float64 `json:"replay_ms"`
	ApplyMs        float64 `json:"apply_ms"` // end-to-end, including the above
}

// Update is the result of a successful Apply (or Query): the session's new
// sequence number and the marginals of every live target. A Query's update
// also lists the live windows, read in the same lock hold.
type Update struct {
	Seq       uint64     `json:"seq"`
	Marginals []Marginal `json:"marginals"`
	Stats     Stats      `json:"stats"`
	Windows   []Window   `json:"windows,omitempty"`
}

// Window describes one live window: what a client may address with deltas.
type Window struct {
	Window int64    `json:"window"`
	Vars   []string `json:"vars"`
	Tuples []int    `json:"tuples"`
}

// NewSession builds a session, materialises the initial window segments
// from the deterministic feed, and compiles them.
func NewSession(ctx context.Context, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 || cfg.Iter < 1 {
		return nil, fmt.Errorf("stream: k and iter must be >= 1")
	}
	if cfg.K > core.MaxK {
		return nil, fmt.Errorf("stream: k must be <= %d (got %d)", core.MaxK, cfg.K)
	}
	if cfg.Iter > core.MaxIter {
		return nil, fmt.Errorf("stream: iter must be <= %d (got %d)", core.MaxIter, cfg.Iter)
	}
	if cfg.Vars > core.MaxVars {
		return nil, fmt.Errorf("stream: vars must be <= %d (got %d)", core.MaxVars, cfg.Vars)
	}
	if cfg.Segments < 1 || cfg.Segments > 32 {
		return nil, fmt.Errorf("stream: segments must be in [1, 32]")
	}
	if cfg.SegmentN < cfg.K {
		return nil, fmt.Errorf("stream: segment_n (%d) must be >= k (%d)", cfg.SegmentN, cfg.K)
	}
	if cfg.SegmentN > 64 || cfg.MaxSegmentTuples > 256 {
		return nil, fmt.Errorf("stream: segment_n <= 64 and max_segment_tuples <= 256")
	}
	if cfg.MaxSegmentTuples < cfg.SegmentN {
		return nil, fmt.Errorf("stream: max_segment_tuples (%d) must be >= segment_n (%d)", cfg.MaxSegmentTuples, cfg.SegmentN)
	}
	parsed, err := cfg.program()
	if err != nil {
		return nil, err
	}
	scheme, err := lineage.ParseScheme(cfg.Scheme)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	s := &Session{
		cfg:    cfg,
		scheme: scheme,
		parsed: parsed,
		mu:     make(chan struct{}, 1),
	}
	for w := int64(0); w < int64(cfg.Segments); w++ {
		seg, err := s.newSegment(w)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		s.segs = append(s.segs, seg)
	}
	s.nextWindow = int64(cfg.Segments)
	for _, seg := range s.segs {
		seg.dirty = true
	}
	var st Stats
	if err := s.recompute(ctx, &st); err != nil {
		return nil, err
	}
	return s, nil
}

// lock acquires the session mutex, honouring ctx cancellation.
func (s *Session) lock(ctx context.Context) error {
	select {
	case s.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) unlock() { <-s.mu }

// Seq returns the session's current sequence number.
func (s *Session) Seq() uint64 {
	s.mu <- struct{}{}
	defer s.unlock()
	return s.seq
}

// Windows returns the live window indices, oldest first.
func (s *Session) Windows() []int64 {
	s.mu <- struct{}{}
	defer s.unlock()
	out := make([]int64, len(s.segs))
	for i, seg := range s.segs {
		out[i] = seg.window
	}
	return out
}

// Apply validates a delta batch against the session sequence, mutates
// segment state, advances the sequence by the batch's length, and brings
// every dirty segment back to a compiled, evaluated state. The session keeps
// no record of the batch. Same config and same prefix of pushed batches —
// the client's log — always yield byte-identical marginals: the feed is
// deterministic, grounding is deterministic, and circuit replay is
// byte-identical to a fresh trace.
func (s *Session) Apply(ctx context.Context, baseSeq uint64, deltas []Delta) (_ *Update, err error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer s.unlock()
	defer s.breakOnPanic("stream apply", &err)
	if s.broken != nil {
		return nil, fmt.Errorf("stream: session failed permanently: %w", s.broken)
	}
	if baseSeq != s.seq {
		return nil, &SeqError{Want: s.seq, Got: baseSeq}
	}
	if err := s.validate(deltas); err != nil {
		return nil, &ValidationError{Err: err}
	}
	start := time.Now()
	s.apply(deltas)
	s.seq += uint64(len(deltas))
	st := Stats{Applied: len(deltas)}
	if err := s.recompute(ctx, &st); err != nil {
		// Cancellation keeps dirty flags set; the next Apply or Query
		// resumes the rebuild. Anything else is a grounding/compile bug on
		// state we validated, so the session is declared broken rather
		// than serving stale marginals.
		if ctx.Err() == nil {
			s.broken = err
		}
		return nil, err
	}
	st.ApplyMs = float64(time.Since(start)) / float64(time.Millisecond)
	return &Update{Seq: s.seq, Marginals: s.marginals(), Stats: st}, nil
}

// Query returns the current marginals and live windows without applying
// deltas. If an earlier Apply was cancelled mid-recompute, Query finishes
// the rebuild.
func (s *Session) Query(ctx context.Context) (_ *Update, err error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer s.unlock()
	defer s.breakOnPanic("stream query", &err)
	if s.broken != nil {
		return nil, fmt.Errorf("stream: session failed permanently: %w", s.broken)
	}
	var st Stats
	if err := s.recompute(ctx, &st); err != nil {
		if ctx.Err() == nil {
			s.broken = err
		}
		return nil, err
	}
	wins := make([]Window, len(s.segs))
	for i, seg := range s.segs {
		wins[i] = Window{Window: seg.window, Vars: seg.varNames(), Tuples: seg.tupleIDs()}
	}
	return &Update{Seq: s.seq, Marginals: s.marginals(), Stats: st, Windows: wins}, nil
}

// breakOnPanic, deferred under the session lock, turns a panic in Apply or
// Query into the session's sticky failure: the panic may have left the
// sequence and the segments half-updated, so every later use is refused.
// The call answers the *core.PanicError.
func (s *Session) breakOnPanic(op string, err *error) {
	if r := recover(); r != nil {
		pe := core.NewPanicError(op, r)
		s.broken, *err = pe, pe
	}
}

// marginals copies every live target's bounds into a fresh slice, so the
// caller may read it after the session moves on.
func (s *Session) marginals() []Marginal {
	n := 0
	for _, seg := range s.segs {
		n += len(seg.marg)
	}
	out := make([]Marginal, 0, n)
	for _, seg := range s.segs {
		for _, t := range seg.marg {
			out = append(out, Marginal{Window: seg.window, Name: t.Name, Lower: t.Lower, Upper: t.Upper})
		}
	}
	return out
}

// specFor assembles the compilation spec of one segment. The shared parsed
// program makes PrepareContext skip lexing and parsing entirely.
func (s *Session) specFor(seg *segment) core.Spec {
	init := make([]int, s.cfg.K)
	for i := range init {
		init[i] = i
	}
	return core.Spec{
		Source:      "", // Parsed wins; source only matters for error text
		Parsed:      s.parsed,
		Objects:     seg.objs,
		Space:       seg.space,
		Params:      []int{s.cfg.K, s.cfg.Iter},
		InitIndices: init,
		Targets:     s.cfg.Targets,
	}
}

// recompute brings every segment back to evaluated state:
//
//   - dirty segments re-ground through the fused emitter; if the new
//     network equals the old one the consed circuit is kept, otherwise
//     the stale circuit memo is dropped and the segment re-traces;
//   - segments with only probability changes replay their circuit;
//   - clean segments are left as they are.
func (s *Session) recompute(ctx context.Context, st *Stats) error {
	for _, seg := range s.segs {
		switch {
		case seg.dirty:
			if err := s.rebuild(ctx, seg, st); err != nil {
				return err
			}
			seg.dirty, seg.probsDirty = false, false
		case seg.probsDirty:
			if err := s.replay(ctx, seg, st); err != nil {
				return err
			}
			seg.probsDirty = false
		}
	}
	return nil
}

// rebuild re-grounds a segment and re-traces its circuit unless the new
// network equals the old one, which proves the old circuit still replays it.
func (s *Session) rebuild(ctx context.Context, seg *segment, st *Stats) error {
	t0 := time.Now()
	art, err := core.PrepareContext(ctx, s.specFor(seg))
	if err != nil {
		return fmt.Errorf("stream: window %d: re-ground: %w", seg.window, err)
	}
	st.GroundMs += float64(time.Since(t0)) / float64(time.Millisecond)
	st.Reground++
	if seg.circ != nil && network.Equal(seg.art.Net, art.Net) {
		// Structurally identical re-ground (e.g. insert+delete cancelling
		// out): the circuit replays; only the marginals may have moved.
		seg.art = art
		st.ReusedCircuits++
		return s.replay(ctx, seg, st)
	}
	seg.art, seg.circ = art, nil
	return s.retrace(ctx, seg, st)
}

// retrace compiles the segment's circuit from its prepared artifact and
// copies the resulting marginals: the artifact's Result is its shared,
// read-only memo, and replay writes into seg.marg.
func (s *Session) retrace(ctx context.Context, seg *segment, st *Stats) error {
	t0 := time.Now()
	c, res, _, err := seg.art.Circuit(ctx, prob.Options{Heuristic: s.cfg.Order})
	st.TraceMs += float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return fmt.Errorf("stream: window %d: trace: %w", seg.window, err)
	}
	st.Retraced++
	if c.Complete() {
		seg.circ = c
	} else {
		// Boundary probabilities pruned subtrees out of the trace; the
		// circuit is only valid at these exact marginals, so drop it and
		// re-trace on the next change. Marginals remain exact either way.
		seg.circ = nil
	}
	seg.marg = append(seg.marg[:0], res.Targets...)
	return nil
}

// replay re-evaluates the segment's memoized circuit at the space's current
// marginals — the zero-recompilation fast path — into the segment's own
// marginals, probability vector and bound scratch, allocating nothing once
// they are sized. Incomplete segments (no stored circuit) fall back to a
// fresh trace, which is just as exact.
func (s *Session) replay(ctx context.Context, seg *segment, st *Stats) error {
	if seg.circ == nil {
		return s.retrace(ctx, seg, st)
	}
	t0 := time.Now()
	nv, nt := seg.space.Len(), len(seg.marg)
	seg.probs = slices.Grow(seg.probs[:0], nv)[:nv]
	for i := range seg.probs {
		seg.probs[i] = seg.space.Prob(event.VarID(i))
	}
	seg.bounds = slices.Grow(seg.bounds[:0], 2*nt)[:2*nt]
	err := prob.EvalCircuitInto(seg.circ, seg.probs, seg.bounds[:nt], seg.bounds[nt:], seg.marg)
	st.ReplayMs += float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		return fmt.Errorf("stream: window %d: replay: %w", seg.window, err)
	}
	st.Replayed++
	return nil
}

// VarNames returns the variable names of a live window, in declaration
// order — what a client may address with prob deltas.
func (s *Session) VarNames(w int64) ([]string, error) {
	s.mu <- struct{}{}
	defer s.unlock()
	seg := s.liveSeg(w)
	if seg == nil {
		return nil, fmt.Errorf("stream: window %d is not live", w)
	}
	return seg.varNames(), nil
}

func (seg *segment) varNames() []string {
	out := make([]string, seg.space.Len())
	for i := range out {
		out[i] = seg.space.Name(event.VarID(i))
	}
	return out
}

// TupleIDs returns the live tuple ids of a window.
func (s *Session) TupleIDs(w int64) ([]int, error) {
	s.mu <- struct{}{}
	defer s.unlock()
	seg := s.liveSeg(w)
	if seg == nil {
		return nil, fmt.Errorf("stream: window %d is not live", w)
	}
	return seg.tupleIDs(), nil
}

func (seg *segment) tupleIDs() []int {
	out := make([]int, len(seg.objs))
	for i, o := range seg.objs {
		out[i] = o.ID
	}
	return out
}

// liveSeg returns the live segment of window w, or nil.
func (s *Session) liveSeg(w int64) *segment {
	for _, seg := range s.segs {
		if seg.window == w {
			return seg
		}
	}
	return nil
}
