package obs

import "time"

// Cross-process span shipping. A worker process records its job under a
// local *Trace, exports the root span as a SpanExport, and the coordinator
// splices the subtree into its live trace — shifted by the per-connection
// clock offset and assigned a dedicated Chrome-trace process lane, so one
// -trace-out file shows every process side by side in Perfetto.

// SpanExport is the portable form of a span subtree: plain data, JSON-ready,
// with absolute UnixNano timestamps in the recording process's clock.
type SpanExport struct {
	Name string `json:"name"`
	// PID is the Chrome-trace process lane (1 = the exporting process's
	// local lane; rewritten by the splicing side).
	PID int `json:"pid,omitempty"`
	TID int `json:"tid,omitempty"`
	// StartNs/EndNs are absolute time.Time.UnixNano() readings of the
	// exporting trace's clock.
	StartNs  int64        `json:"start_unix_ns"`
	EndNs    int64        `json:"end_unix_ns"`
	Attrs    []AttrExport `json:"attrs,omitempty"`
	Children []SpanExport `json:"children,omitempty"`
}

// AttrExport is one exported attribute; exactly one of I/F/S is set.
type AttrExport struct {
	Key string   `json:"key"`
	I   *int64   `json:"i,omitempty"`
	F   *float64 `json:"f,omitempty"`
	S   *string  `json:"s,omitempty"`
}

// Export snapshots the span and its descendants. Open spans export as
// running up to the export instant. A nil span exports as the zero value.
func (s *Span) Export() SpanExport {
	if s == nil {
		return SpanExport{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.exportLocked()
}

func (s *Span) exportLocked() SpanExport {
	end := s.end
	if end.IsZero() {
		end = s.t.now()
	}
	pid := s.pid
	if pid == 0 {
		pid = 1
	}
	ex := SpanExport{
		Name:    s.name,
		PID:     pid,
		TID:     s.tid,
		StartNs: s.start.UnixNano(),
		EndNs:   end.UnixNano(),
	}
	if len(s.attrs) > 0 {
		ex.Attrs = make([]AttrExport, len(s.attrs))
		for i, a := range s.attrs {
			ea := AttrExport{Key: a.Key}
			switch a.kind {
			case attrInt:
				v := a.i
				ea.I = &v
			case attrFloat:
				v := a.f
				ea.F = &v
			default:
				v := a.s
				ea.S = &v
			}
			ex.Attrs[i] = ea
		}
	}
	if len(s.children) > 0 {
		ex.Children = make([]SpanExport, len(s.children))
		for i, c := range s.children {
			ex.Children[i] = c.exportLocked()
		}
	}
	return ex
}

// Splice attaches a remotely recorded span subtree as a child of s. Every
// timestamp in the subtree is shifted by shiftNs (add the negated
// per-connection clock offset to land remote readings on the local clock);
// every span lands on Chrome-trace process lane pid, labelled label in the
// exported trace's process metadata. Nil-safe: a disabled span drops the
// subtree.
func (s *Span) Splice(ex SpanExport, shiftNs int64, pid int, label string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if pid > 1 && label != "" {
		if t.lanes == nil {
			t.lanes = map[int]string{}
		}
		if _, ok := t.lanes[pid]; !ok {
			t.lanes[pid] = label
		}
	}
	s.children = append(s.children, spliceLocked(t, ex, shiftNs, pid))
}

func spliceLocked(t *Trace, ex SpanExport, shiftNs int64, pid int) *Span {
	tid := ex.TID
	if tid == 0 {
		tid = 1
	}
	c := &Span{
		t:     t,
		name:  ex.Name,
		tid:   tid,
		pid:   pid,
		start: time.Unix(0, ex.StartNs+shiftNs),
		end:   time.Unix(0, ex.EndNs+shiftNs),
	}
	if len(ex.Attrs) > 0 {
		c.attrs = make([]Attr, 0, len(ex.Attrs))
		for _, a := range ex.Attrs {
			switch {
			case a.I != nil:
				c.attrs = append(c.attrs, Attr{Key: a.Key, kind: attrInt, i: *a.I})
			case a.F != nil:
				c.attrs = append(c.attrs, Attr{Key: a.Key, kind: attrFloat, f: *a.F})
			case a.S != nil:
				c.attrs = append(c.attrs, Attr{Key: a.Key, kind: attrStr, s: *a.S})
			}
		}
	}
	for _, ce := range ex.Children {
		c.children = append(c.children, spliceLocked(t, ce, shiftNs, pid))
	}
	return c
}
