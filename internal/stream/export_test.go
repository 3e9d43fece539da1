package stream

import (
	"fmt"

	"enframe/internal/core"
	"enframe/internal/lineage"
	"enframe/internal/prob"
)

// SegmentSpec returns a from-scratch compilation spec for a live window —
// the oracle the tests compile independently to check byte-identity. The
// object slice is copied; the space is shared (the standard pipeline never
// mutates it).
func (s *Session) SegmentSpec(w int64) (core.Spec, error) {
	s.mu <- struct{}{}
	defer s.unlock()
	seg := s.liveSeg(w)
	if seg == nil {
		return core.Spec{}, fmt.Errorf("stream: window %d is not live", w)
	}
	spec := s.specFor(seg)
	spec.Objects = append([]lineage.Object(nil), seg.objs...)
	return spec, nil
}

// Heuristic returns the session's variable-order heuristic (for oracle
// compilations that must match the session's circuits bit for bit).
func (s *Session) Heuristic() prob.OrderHeuristic { return s.cfg.Order }
