package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry. Metric handles are
// looked up once (under a mutex) and then updated lock-free with atomics,
// so the hot path never contends on the registry itself. A nil *Registry
// hands out nil handles whose methods no-op without allocating.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it on first
// use with the given upper bounds (ascending; an implicit +Inf bucket is
// appended). Later calls ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op when nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 point-in-time value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v (no-op when nil).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: Observe is one atomic increment
// plus two atomic adds, with bucket search over the small immutable bounds
// slice. Bounds are upper bounds; values above the last bound land in the
// implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample (no-op when nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns (upper bound, cumulative count to that bound) pairs; the
// final pair's bound is +Inf.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{Le: le, Count: cum}
	}
	return out
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	Le    float64 // upper bound (inclusive), +Inf for the overflow bucket
	Count int64   // observations ≤ Le
}

// MetricValue is a point-in-time snapshot of one metric.
type MetricValue struct {
	Name    string
	Kind    string // "counter", "gauge", or "histogram"
	Value   float64
	Sum     float64  // histogram only
	Buckets []Bucket // histogram only
}

// Values snapshots every metric, sorted by name.
func (r *Registry) Values() []MetricValue {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, MetricValue{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, MetricValue{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out, MetricValue{
			Name: name, Kind: "histogram",
			Value: float64(h.Count()), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the registry as one "name kind value" line per metric —
// the CLI's -metrics dump; /metrics serves Prometheus text or JSON instead.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, mv := range r.Values() {
		switch mv.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-40s %-9s count=%.0f sum=%g\n", mv.Name, mv.Kind, mv.Value, mv.Sum)
		default:
			fmt.Fprintf(&b, "%-40s %-9s %g\n", mv.Name, mv.Kind, mv.Value)
		}
	}
	return b.String()
}
