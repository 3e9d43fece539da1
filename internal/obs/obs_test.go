package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic clock advancing 1ms per reading.
func fakeClock() func() time.Time {
	epoch := time.Unix(1000, 0).UTC()
	n := 0
	return func() time.Time {
		n++
		return epoch.Add(time.Duration(n) * time.Millisecond)
	}
}

func newTestTrace(name string) *Trace {
	clock := fakeClock()
	t := &Trace{
		now:       clock,
		metrics:   NewRegistry(),
		timelines: map[string]*Timeline{},
	}
	t.root = &Span{t: t, name: name, tid: 1, start: t.now()}
	return t
}

func TestSpanTreeStructure(t *testing.T) {
	tr := newTestTrace("run")
	parse := tr.Root().Start("parse")
	parse.SetInt("tokens", 42)
	parse.End()
	compile := tr.Root().Start("compile")
	compile.SetStr("strategy", "hybrid")
	explore := compile.Start("explore")
	explore.End()
	compile.End()
	tr.Finish()

	tree := tr.Tree()
	for _, want := range []string{"run", "├─ parse", "└─ compile", "   └─ explore", "tokens=42", "strategy=hybrid"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// The trace is finished and single-goroutine: read durations unlocked.
	if d := parse.durLocked(); d != time.Millisecond {
		t.Errorf("parse span duration = %v, want 1ms", d)
	}
	// Stage times nest: compile contains explore.
	if compile.durLocked() < explore.durLocked() {
		t.Errorf("compile (%v) shorter than child explore (%v)", compile.durLocked(), explore.durLocked())
	}
}

func TestChromeTraceGolden(t *testing.T) {
	tr := newTestTrace("enframe")
	parse := tr.Root().Start("parse")
	parse.SetInt("tokens", 42)
	parse.End()
	compile := tr.Root().Start("compile")
	compile.SetStr("strategy", "hybrid")
	compile.SetFloat("eps", 0.1)
	w0 := compile.Start("worker")
	w0.SetTID(2)
	w0.SetInt("id", 0)
	tr.Timeline("budget", 16).Add(3, 0.025)
	w0.End()
	compile.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden.\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestChromeTraceDisabled(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("disabled trace export = %q", buf.String())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.max")
			h := r.Histogram("shared.hist", []float64{10, 100, 1000})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(float64(w*perWorker + i))
				h.Observe(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared.max").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge max = %g, want %d", got, workers*perWorker-1)
	}
	h := r.Histogram("shared.hist", nil)
	if h.Count() != workers*perWorker {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*perWorker)
	}
	wantSum := float64(workers) * float64(perWorker*(perWorker-1)) / 2
	if h.Sum() != wantSum {
		t.Errorf("hist sum = %g, want %g", h.Sum(), wantSum)
	}
	bk := h.Buckets()
	if last := bk[len(bk)-1]; last.Count != workers*perWorker {
		t.Errorf("final cumulative bucket = %d, want %d", last.Count, workers*perWorker)
	}
}

func TestTracerConcurrentWorkers(t *testing.T) {
	tr := New("run")
	compile := tr.Root().Start("compile")
	tl := tr.Timeline("budget", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := compile.Start("worker")
			ws.SetTID(w + 2)
			ws.SetInt("id", int64(w))
			for i := 0; i < 50; i++ {
				ws.SetInt("step", int64(i))
				tl.Add(w, float64(i))
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	compile.End()
	tr.Finish()
	if n := strings.Count(tr.Tree(), "worker"); n != 8 {
		t.Errorf("tree has %d worker spans, want 8", n)
	}
	pts, dropped := tr.Timeline("budget", 64).Points()
	if len(pts) != 64 {
		t.Errorf("timeline kept %d points, want capacity 64", len(pts))
	}
	if dropped != 8*50-64 {
		t.Errorf("timeline dropped %d, want %d", dropped, 8*50-64)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineBounded(t *testing.T) {
	tr := New("run")
	tl := tr.Timeline("spend", 4)
	for i := 0; i < 10; i++ {
		tl.Add(i, 1)
	}
	pts, dropped := tl.Points()
	if len(pts) != 4 || dropped != 6 {
		t.Errorf("got %d points, %d dropped; want 4, 6", len(pts), dropped)
	}
	// Same name returns the same timeline regardless of capacity argument.
	if tr.Timeline("spend", 99) != tl {
		t.Error("Timeline(name) did not memoise")
	}
}

// TestDisabledPathDoesNotAllocate asserts the nil (disabled) implementations
// are allocation-free, so instrumentation can stay unconditionally in hot
// code.
func TestDisabledPathDoesNotAllocate(t *testing.T) {
	var tr *Trace
	var reg *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tl *Timeline
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Root().Start("x")
		sp.SetInt("k", 1)
		sp.SetFloat("f", 1)
		sp.SetStr("s", "v")
		sp.End()
		reg.Counter("c").Add(1)
		c.Inc()
		g.SetMax(3)
		h.Observe(1)
		tl.Add(0, 1)
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled path allocates %v times per op, want 0", allocs)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.rate").Set(0.5)
	s := r.String()
	ai, bi := strings.Index(s, "a.rate"), strings.Index(s, "b.count")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("String() not sorted or missing entries:\n%s", s)
	}
}
