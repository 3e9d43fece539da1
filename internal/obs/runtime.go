package obs

import "runtime/metrics"

// Process runtime gauges, sampled from runtime/metrics when /metrics is
// scraped, so it answers scrape questions ("is the server leaking
// goroutines? how big is the heap? how much time has GC stolen?") without
// any per-request cost.

// runtimeSamples maps runtime/metrics names onto registry gauge names.
// Unsupported names (older toolchains) are skipped at first sample.
var runtimeSamples = []struct {
	src   string
	gauge string
}{
	{"/sched/goroutines:goroutines", "process.goroutines"},
	{"/memory/classes/heap/objects:bytes", "process.heap.objects_bytes"},
	{"/memory/classes/total:bytes", "process.memory.total_bytes"},
	{"/gc/cycles/total:gc-cycles", "process.gc.cycles"},
	{"/cpu/classes/gc/pause:cpu-seconds", "process.gc.pause_total_seconds"},
}

// SampleRuntime takes one immediate sample of the process runtime gauges.
// Scrape handlers call it so /metrics answers with the live process state —
// a leak check that scrapes twice in quick succession must see real
// movement.
func (r *Registry) SampleRuntime() {
	if r == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.src
	}
	metrics.Read(samples)
	for i := range samples {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			r.Gauge(runtimeSamples[i].gauge).Set(float64(samples[i].Value.Uint64()))
		case metrics.KindFloat64:
			r.Gauge(runtimeSamples[i].gauge).Set(samples[i].Value.Float64())
		}
	}
}
