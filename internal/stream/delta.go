package stream

import (
	"fmt"
	"strconv"
	"strings"

	"enframe/internal/event"
	"enframe/internal/lineage"
	"enframe/internal/vec"
)

// Delta is one change a client pushes to a session, in a batch that Apply
// validates and applies whole. The session does not keep it: the client's
// log of the batches it pushed is the replay record. Ops:
//
//   - "prob":    set Pr[Var = true] = *P in segment Window. Never structural:
//     the segment's consed circuit replays at the new probabilities.
//   - "insert":  append a tuple at Pos to segment Window, backed by a fresh
//     independent random variable with Pr = *P. Structural.
//   - "delete":  remove tuple ID from segment Window. Structural. The
//     tuple's variable stays in the segment's space, addressable by prob
//     deltas, until the window retires.
//   - "advance": slide the window by N segments — retire the N oldest, admit
//     N fresh segments from the deterministic feed. Structural for the
//     admitted segments only.
//
// Window selects the target segment by its window index; nil means the
// newest live segment. Deltas are validated as a batch before any state
// mutates, so a rejected batch leaves the session untouched.
type Delta struct {
	Op     string    `json:"op"`
	Window *int64    `json:"window,omitempty"`
	Var    string    `json:"var,omitempty"`
	P      *float64  `json:"p,omitempty"`
	Pos    []float64 `json:"pos,omitempty"`
	ID     int       `json:"id,omitempty"`
	N      int       `json:"n,omitempty"`
}

// Delta op names.
const (
	OpProb    = "prob"
	OpInsert  = "insert"
	OpDelete  = "delete"
	OpAdvance = "advance"
)

// SeqError rejects a push whose base sequence number does not match the
// session's current sequence — the duplicate/out-of-order delivery guard.
// Want is the only acceptable base; Got is what the client sent.
type SeqError struct {
	Want, Got uint64
}

func (e *SeqError) Error() string {
	return fmt.Sprintf("stream: base_seq %d does not match session seq %d (duplicate or out-of-order push)", e.Got, e.Want)
}

// ValidationError marks a rejected delta batch: the client sent something
// malformed, not the session failing. Servers map it to 400.
type ValidationError struct{ Err error }

func (e *ValidationError) Error() string { return e.Err.Error() }
func (e *ValidationError) Unwrap() error { return e.Err }

// maxAdvancePerBatch bounds how far one batch may slide the window.
const maxAdvancePerBatch = 64

// simSeg tracks the simulated mutable state of one segment during batch
// validation: enough to decide id existence and size bounds without touching
// the real segment. Variable names are not copied: a name exists if the
// segment has it or an earlier insert of the batch creates it (inserted).
type simSeg struct {
	live   map[int]bool // current tuple ids
	nextID int
}

func newSimSeg(seg *segment) *simSeg {
	ss := &simSeg{live: make(map[int]bool, len(seg.objs)), nextID: seg.nextID}
	for _, o := range seg.objs {
		ss.live[o.ID] = true
	}
	return ss
}

// inserted reports whether name is the variable of a tuple that an insert
// earlier in the batch adds to seg: insertVarName(id) for an id in
// [seg.nextID, ss.nextID). A nil ss (no structural delta touched seg yet)
// has inserted nothing.
func (ss *simSeg) inserted(seg *segment, name string) bool {
	if ss == nil {
		return false
	}
	rest, ok := strings.CutPrefix(name, "+v")
	if !ok {
		return false
	}
	id, err := strconv.Atoi(rest)
	return err == nil && id >= seg.nextID && id < ss.nextID && insertVarName(id) == name
}

// validate simulates the batch against the current session state. It never
// mutates the session. Only the tuple ids of segments an insert or delete
// touches are copied into a simSeg; a prob delta looks its variable up in the
// segment itself, so a probability-only batch copies nothing. Deltas may
// not reference a window admitted by an advance earlier in the same batch
// (its feed-generated variable names are not materialised yet); push a
// second batch instead.
func (s *Session) validate(deltas []Delta) error {
	if len(deltas) == 0 {
		return fmt.Errorf("stream: empty delta batch")
	}
	wins := make([]int64, len(s.segs))
	for i, seg := range s.segs {
		wins[i] = seg.window
	}
	var sims map[int64]*simSeg
	simFor := func(seg *segment) *simSeg {
		if ss, ok := sims[seg.window]; ok {
			return ss
		}
		if sims == nil {
			sims = map[int64]*simSeg{}
		}
		ss := newSimSeg(seg)
		sims[seg.window] = ss
		return ss
	}
	isLive := func(w int64) bool {
		for _, lw := range wins {
			if lw == w {
				return true
			}
		}
		return false
	}
	advanced := 0
	for i, d := range deltas {
		// resolveSeg returns the live, materialised segment d addresses.
		resolveSeg := func() (*segment, error) {
			w := wins[len(wins)-1]
			if d.Window != nil {
				w = *d.Window
				if !isLive(w) {
					return nil, fmt.Errorf("stream: delta %d: window %d is not live (live: %v)", i, w, wins)
				}
			}
			seg := s.liveSeg(w)
			if seg == nil {
				return nil, fmt.Errorf("stream: delta %d: cannot target window %d admitted earlier in this batch; push it in a following batch", i, w)
			}
			return seg, nil
		}
		switch d.Op {
		case OpProb:
			seg, err := resolveSeg()
			if err != nil {
				return err
			}
			if d.Var == "" {
				return fmt.Errorf("stream: delta %d: prob needs var", i)
			}
			if d.P == nil || *d.P < 0 || *d.P > 1 {
				return fmt.Errorf("stream: delta %d: prob needs p in [0, 1]", i)
			}
			if _, has := seg.varIdx[d.Var]; !has && !sims[seg.window].inserted(seg, d.Var) {
				return fmt.Errorf("stream: delta %d: window %d has no variable %q", i, seg.window, d.Var)
			}
		case OpInsert:
			seg, err := resolveSeg()
			if err != nil {
				return err
			}
			if len(d.Pos) != feedDim {
				return fmt.Errorf("stream: delta %d: insert needs a %d-dimensional pos (got %d)", i, feedDim, len(d.Pos))
			}
			if d.P == nil || *d.P < 0 || *d.P > 1 {
				return fmt.Errorf("stream: delta %d: insert needs p in [0, 1]", i)
			}
			ss := simFor(seg)
			if len(ss.live) >= s.cfg.MaxSegmentTuples {
				return fmt.Errorf("stream: delta %d: window %d is full (%d tuples)", i, seg.window, len(ss.live))
			}
			ss.live[ss.nextID] = true
			ss.nextID++
		case OpDelete:
			seg, err := resolveSeg()
			if err != nil {
				return err
			}
			ss := simFor(seg)
			if !ss.live[d.ID] {
				return fmt.Errorf("stream: delta %d: window %d has no tuple %d", i, seg.window, d.ID)
			}
			if len(ss.live)-1 < s.cfg.K {
				return fmt.Errorf("stream: delta %d: window %d cannot drop below k=%d tuples", i, seg.window, s.cfg.K)
			}
			delete(ss.live, d.ID)
		case OpAdvance:
			n := d.N
			if n == 0 {
				n = 1
			}
			if n < 1 || advanced+n > maxAdvancePerBatch {
				return fmt.Errorf("stream: delta %d: advance n must be in [1, %d] per batch", i, maxAdvancePerBatch)
			}
			advanced += n
			for j := 0; j < n; j++ {
				// Retire the oldest live window, admit a fresh (unmaterialised)
				// one. Later deltas in this batch cannot address the admission.
				wins = append(wins[1:], s.nextWindow+int64(advanced-n+j))
			}
		default:
			return fmt.Errorf("stream: delta %d: unknown op %q (want prob, insert, delete, or advance)", i, d.Op)
		}
	}
	return nil
}

// insertVarName names the fresh variable backing an inserted tuple. The "+"
// prefix cannot collide with feed-generated lineage variable names.
func insertVarName(id int) string { return fmt.Sprintf("+v%d", id) }

// apply mutates session state for one validated batch. It cannot fail:
// everything fallible was checked by validate. Structural mutations mark
// their segment dirty; probability updates mark it probsDirty.
func (s *Session) apply(deltas []Delta) {
	for _, d := range deltas {
		switch d.Op {
		case OpProb:
			seg := s.segFor(d.Window)
			seg.space.SetProb(seg.varIdx[d.Var], *d.P)
			seg.probsDirty = true
		case OpInsert:
			seg := s.segFor(d.Window)
			name := insertVarName(seg.nextID)
			id := seg.space.Add(name, *d.P)
			seg.varIdx[name] = id
			seg.objs = append(seg.objs, lineage.Object{
				ID:      seg.nextID,
				Pos:     vec.New(d.Pos...),
				Lineage: event.NewVar(id, name),
			})
			seg.nextID++
			seg.dirty = true
		case OpDelete:
			seg := s.segFor(d.Window)
			for i, o := range seg.objs {
				if o.ID == d.ID {
					seg.objs = append(seg.objs[:i], seg.objs[i+1:]...)
					break
				}
			}
			seg.dirty = true
		case OpAdvance:
			n := d.N
			if n == 0 {
				n = 1
			}
			for j := 0; j < n; j++ {
				s.segs = s.segs[1:]
				s.segs = append(s.segs, s.mustSegment(s.nextWindow))
				s.nextWindow++
			}
		}
	}
}

// segFor resolves a delta's window reference against live segments; nil
// means newest. Only called after validation, so the lookup cannot miss.
func (s *Session) segFor(w *int64) *segment {
	if w == nil {
		return s.segs[len(s.segs)-1]
	}
	if seg := s.liveSeg(*w); seg != nil {
		return seg
	}
	panic(fmt.Sprintf("stream: window %d vanished after validation", *w))
}
