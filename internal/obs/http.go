package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
)

// metricJSON mirrors MetricValue with a JSON-encodable overflow bucket:
// encoding/json rejects +Inf, so Le is a float64 or the string "+Inf".
type metricJSON struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Value   float64      `json:"value"`
	Sum     float64      `json:"sum,omitempty"`
	Buckets []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	Le    any   `json:"le"`
	Count int64 `json:"count"`
}

// WriteMetricsHTTP renders a registry onto an HTTP response in one of two
// formats: ?format=json (or, without a format parameter, an Accept naming
// application/json) gets the structured JSON snapshot; everything else —
// ?format=prometheus, a scraper's Accept: text/plain, curl's bare
// Accept: */* — gets Prometheus exposition text. Every /metrics endpoint in
// the fleet (serve shards, the shard router) shares this negotiation, so
// scrapers see one contract.
func WriteMetricsHTTP(reg *Registry, w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "json" || (format == "" && strings.Contains(r.Header.Get("Accept"), "application/json")) {
		vals := reg.Values()
		out := make([]metricJSON, 0, len(vals))
		for _, v := range vals {
			m := metricJSON{Name: v.Name, Kind: v.Kind, Value: v.Value, Sum: v.Sum}
			for _, b := range v.Buckets {
				var le any = b.Le
				if math.IsInf(b.Le, 1) {
					le = "+Inf"
				}
				m.Buckets = append(m.Buckets, bucketJSON{Le: le, Count: b.Count})
			}
			out = append(out, m)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WritePrometheus(w)
}
