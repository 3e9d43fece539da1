package stream

import (
	"enframe/internal/data"
	"enframe/internal/event"
	"enframe/internal/lineage"
)

// feedDim is the dimensionality of feed tuples (load, probability-of-default
// — the synthetic sensor shape of internal/data).
const feedDim = 2

// newSegment materialises the feed segment for one window index. The
// segment is a pure function of (Config, window): positions come from
// data.Points and lineage from lineage.Attach, both seeded by a mix of the
// session seed and the window. This is what makes replay deterministic —
// any replica that applies the same prefix of the client's pushed batches
// regenerates bit-equal windows, though no session keeps those batches.
func (s *Session) newSegment(w int64) (*segment, error) {
	seed := s.cfg.Seed + w*1000003 // decorrelate windows, keep determinism
	pts := data.Points(s.cfg.SegmentN, seed)
	objs, space, err := lineage.Attach(pts, lineage.Config{
		Scheme:          s.scheme,
		GroupSize:       s.cfg.Group,
		NumVars:         s.cfg.Vars,
		L:               s.cfg.L,
		M:               s.cfg.M,
		CertainFraction: s.cfg.Certain,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	seg := &segment{
		window: w,
		objs:   objs,
		space:  space,
		varIdx: make(map[string]event.VarID, space.Len()),
		nextID: len(objs),
		dirty:  true,
	}
	for i := 0; i < space.Len(); i++ {
		seg.varIdx[space.Name(event.VarID(i))] = event.VarID(i)
	}
	return seg, nil
}

// mustSegment is newSegment for the window-advance path. Attach failures
// are purely config-dependent and NewSession already materialised the
// initial windows with this exact config, so a failure here is a bug.
func (s *Session) mustSegment(w int64) *segment {
	seg, err := s.newSegment(w)
	if err != nil {
		panic("stream: feed attach failed after initial windows succeeded: " + err.Error())
	}
	return seg
}
