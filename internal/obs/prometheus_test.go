package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestWritePrometheusGolden pins the text exposition byte-for-byte: metric
// order (sorted by raw name), name sanitisation, histogram bucket/sum/count
// rendering, and float formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(42)
	r.Gauge("dist.worker.0.alive").Set(1)
	r.Gauge("process.goroutines").Set(12)
	r.Counter("9starts-with.digit").Add(1)
	h := r.Histogram("server.latency_ms", []float64{1, 5, 25})
	for _, v := range []float64{0.5, 3, 3, 17, 400} {
		h.Observe(v)
	}
	// The circuit-backend serving metrics (SERVING.md, /v1/run and
	// /v1/whatif), the cache's byte estimate and the leader-panic counter.
	r.Gauge("server.cache.bytes").Set(1.5e6)
	r.Counter("server.panics").Add(1)
	r.Counter("circuit.cache.hits").Add(3)
	r.Counter("circuit.cache.misses").Add(1)
	r.Gauge("circuit.nodes").Set(512)
	he := r.Histogram("circuit.eval_ms", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.4, 2.5} {
		he.Observe(v)
	}
	// The sharded-fleet serving metrics (SERVING.md, "Sharded fleet").
	r.Counter("shard.ring.moves").Add(5)
	r.Counter("server.batch.joined").Add(7)
	r.Counter("server.tenant.throttled").Add(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("prometheus exposition drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

// TestValuesDeterministic registers metrics in scrambled order and requires
// Values() to come back sorted by name, identically across calls — the
// property both the Prometheus writer and -metrics output build on.
func TestValuesDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.mid", "b.second"} {
		r.Counter(n).Inc()
	}
	r.Gauge("k.gauge").Set(7)
	first := r.Values()
	if !sort.SliceIsSorted(first, func(i, j int) bool { return first[i].Name < first[j].Name }) {
		t.Fatalf("Values() not sorted: %+v", first)
	}
	second := r.Values()
	if len(first) != len(second) {
		t.Fatalf("Values() length changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name || first[i].Value != second[i].Value {
			t.Fatalf("Values() not stable at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestTimelineDroppedCounter requires overflowed timeline points to surface
// in the trace registry as obs.timeline.dropped, so capped timelines are
// observable rather than silently lossy.
func TestTimelineDroppedCounter(t *testing.T) {
	tr := New("run")
	tl := tr.Timeline("spend", 4)
	for i := 0; i < 10; i++ {
		tl.Add(i, 1)
	}
	if got := tr.Metrics().Counter("obs.timeline.dropped").Value(); got != 6 {
		t.Errorf("obs.timeline.dropped = %d, want 6", got)
	}
}
