// Package obs is the observability layer of the reproduction: a
// concurrency-safe metrics registry (atomic counters, gauges, fixed-bucket
// histograms, bounded event timelines) and a span-based tracer that covers
// the whole compile pipeline (lex → parse → check → translate → ground →
// order → compile/approximate → distribute).
//
// Everything is nil-safe: a nil *Trace, *Span, *Registry, *Counter, *Gauge,
// *Histogram, or *Timeline is the disabled implementation. Disabled calls
// are a nil check and return — no locking, no allocation — so instrumented
// code passes the observer down unconditionally and pays nothing when
// observability is off (asserted by TestDisabledPathDoesNotAllocate and
// BenchmarkDisabled). The package uses only the standard library.
//
// A Trace exports as a human-readable span tree (Tree) and as Chrome
// trace_event JSON (WriteChromeTrace) loadable in about:tracing or
// https://ui.perfetto.dev. See OBSERVABILITY.md at the repository root.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace owns one pipeline run's spans, metrics, and timelines.
type Trace struct {
	mu        sync.Mutex
	now       func() time.Time // injectable for deterministic tests
	id        string           // random hex trace ID, propagated across processes
	spanSeq   atomic.Uint64    // span ID allocator, unique within the trace
	root      *Span
	metrics   *Registry
	timelines map[string]*Timeline
	// lanes maps extra Chrome-trace process IDs (spliced remote subtrees) to
	// their display labels. The local process is always lane 1.
	lanes map[int]string
}

// New starts an enabled trace whose root span is open from now on.
func New(name string) *Trace {
	return NewWithClock(name, time.Now)
}

// NewWithClock is New with an injectable clock — how tests keep exports
// byte-stable and how worker processes record spans against the same clock
// the per-connection offset handshake measured.
func NewWithClock(name string, now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	t := &Trace{
		now:       now,
		id:        newTraceID(),
		metrics:   NewRegistry(),
		timelines: map[string]*Timeline{},
	}
	t.root = &Span{t: t, name: name, tid: 1, pid: 1, start: t.now(), id: t.spanSeq.Add(1)}
	return t
}

// newTraceID returns 16 hex characters of crypto/rand entropy.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Root returns the root span (nil for a disabled trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Metrics returns the trace's metrics registry (nil when disabled).
func (t *Trace) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Timeline returns the named bounded timeline, creating it with the given
// capacity on first use. Capacity is fixed at creation; later calls with a
// different capacity return the existing timeline unchanged.
func (t *Trace) Timeline(name string, capacity int) *Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tl := t.timelines[name]
	if tl == nil {
		if capacity < 1 {
			capacity = 1
		}
		tl = &Timeline{t: t, name: name, max: capacity,
			dropCtr: t.metrics.Counter("obs.timeline.dropped")}
		t.timelines[name] = tl
	}
	return tl
}

// Finish ends the root span. Spans still open keep accumulating until their
// own End; exports treat them as running up to the export instant.
func (t *Trace) Finish() { t.Root().End() }

// attrKind discriminates the payload of an Attr without boxing.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrFloat
	attrStr
)

// Attr is one key=value annotation of a span.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Value returns the attribute payload for serialisation.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.i
	case attrFloat:
		return a.f
	default:
		return a.s
	}
}

func (a Attr) valueString() string {
	switch a.kind {
	case attrInt:
		return fmt.Sprintf("%d", a.i)
	case attrFloat:
		return fmt.Sprintf("%.4g", a.f)
	default:
		return a.s
	}
}

// Span is one timed region of the pipeline. Spans nest; children may be
// started and ended from different goroutines (the distributed workers each
// own one).
type Span struct {
	t        *Trace
	name     string
	id       uint64 // unique within the trace; 0 only for spliced remote spans
	tid      int
	pid      int // Chrome-trace process lane; 0 and 1 both mean "local"
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Start opens a child span.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	c := &Span{t: t, name: name, id: t.spanSeq.Add(1)}
	t.mu.Lock()
	c.tid = s.tid
	c.pid = s.pid
	c.start = t.now()
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// SpanID returns the span's trace-unique identifier (0 when disabled). A
// remote worker receiving this as its parent span ID roots its local subtree
// under it when the coordinator splices the subtree back.
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the owning trace's identifier ("" when disabled).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// End closes the span; the first call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = s.t.now()
	}
	s.t.mu.Unlock()
}

// SetTID assigns the span (and children started afterwards) to a Chrome
// trace lane; workers use lanes so concurrent spans do not stack.
func (s *Span) SetTID(tid int) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.tid = tid
	s.t.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrInt, i: v})
	s.t.mu.Unlock()
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrFloat, f: v})
	s.t.mu.Unlock()
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, kind: attrStr, s: v})
	s.t.mu.Unlock()
}

// SetDuration attaches a duration attribute, rendered in milliseconds.
func (s *Span) SetDuration(key string, d time.Duration) {
	s.SetFloat(key, float64(d)/float64(time.Millisecond))
}

// durLocked returns the span's wall time; for a still-open span, the time
// since its start.
func (s *Span) durLocked() time.Duration {
	end := s.end
	if end.IsZero() {
		end = s.t.now()
	}
	return end.Sub(s.start)
}

// Tree renders the span hierarchy as an indented human-readable tree:
//
//	run                         14.2ms
//	├─ parse                     0.3ms tokens=812
//	└─ compile                  12.1ms strategy=hybrid
//	   └─ explore               11.8ms
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	t.root.render(&b, "", "", true)
	return b.String()
}

func (s *Span) render(b *strings.Builder, lead, branch string, last bool) {
	b.WriteString(lead)
	b.WriteString(branch)
	label := s.name
	pad := 34 - len(lead) - len(branch) - len(label)
	b.WriteString(label)
	for i := 0; i < pad; i++ {
		b.WriteByte(' ')
	}
	fmt.Fprintf(b, " %9s", fmtDur(s.durLocked()))
	for _, a := range s.attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.valueString())
	}
	b.WriteByte('\n')
	childLead := lead
	if branch != "" {
		if last {
			childLead += "   "
		} else {
			childLead += "│  "
		}
	}
	for i, c := range s.children {
		cb := "├─ "
		if i == len(s.children)-1 {
			cb = "└─ "
		}
		c.render(b, childLead, cb, i == len(s.children)-1)
	}
}

// fmtDur renders a duration with millisecond-scale precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

// Timeline is a bounded append-only series of (elapsed, key, value) points;
// when full, further points are counted as dropped rather than recorded, so
// the hot path stays O(1) and memory stays bounded.
type Timeline struct {
	t       *Trace
	name    string
	mu      sync.Mutex
	max     int
	points  []TimelinePoint
	dropped int64
	dropCtr *Counter // obs.timeline.dropped, shared across timelines
}

// TimelinePoint is one timeline event.
type TimelinePoint struct {
	// At is the elapsed time since the trace root started.
	At time.Duration
	// Key identifies the series (e.g. a compilation-target index).
	Key int
	// Val is the recorded value (e.g. error budget spent).
	Val float64
}

// Add records one point (no-op when nil or full).
func (tl *Timeline) Add(key int, val float64) {
	if tl == nil {
		return
	}
	now := tl.t.now()
	tl.mu.Lock()
	if len(tl.points) < tl.max {
		tl.points = append(tl.points, TimelinePoint{At: now.Sub(tl.t.root.start), Key: key, Val: val})
	} else {
		tl.dropped++
		tl.dropCtr.Inc()
	}
	tl.mu.Unlock()
}

// Points returns a copy of the recorded points and the dropped count.
func (tl *Timeline) Points() ([]TimelinePoint, int64) {
	if tl == nil {
		return nil, 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]TimelinePoint(nil), tl.points...), tl.dropped
}

// timelineNames returns the registered timeline names, sorted.
func (t *Trace) timelineNames() []string {
	names := make([]string, 0, len(t.timelines))
	for n := range t.timelines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
