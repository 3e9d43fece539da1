// Package benchutil holds the measurement helpers of the repository's
// benchmark (benchmark/): latency percentiles, medians and JSON result
// writing.
package benchutil

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// Ms converts a duration to float milliseconds, the unit every snapshot
// uses.
func Ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Percentile returns the p-th percentile (nearest-rank) of an
// ascending-sorted latency slice, in milliseconds. Empty input returns 0.
func Percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return Ms(sorted[idx])
}

// Median returns the middle element of a copy-sorted float slice (upper
// median for even lengths; 0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
