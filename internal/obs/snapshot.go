package obs

import (
	"encoding/json"
	"sort"
	"strings"
)

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time export of a registry, ready for JSON
// (expvar-style dumps, archivectl stats, the /snapshot endpoint): one map
// per kind, keyed by series name — the metric name for a plain metric,
// name{key="value"} for a labelled series, exactly as Prometheus spells
// it. Map keys marshal sorted, so output is stable across runs.
type Snapshot struct {
	Schema     string                       `json:"schema"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// SchemaVersion is the snapshot schema identifier emitted by Snapshot.
const SchemaVersion = "securearchive/obs/v3"

// Snapshot exports every series currently in the registry. Series that
// have never been touched (zero counters, empty histograms) are still
// included — absence of traffic is itself a signal.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Schema:     SchemaVersion,
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for _, f := range r.counters {
		f.each(func(name string, c *Counter) { s.Counters[name] = c.Load() })
	}
	for _, f := range r.hists {
		f.each(func(name string, h *Histogram) {
			s.Histograms[name] = HistogramSnapshot{
				Count: h.Count(),
				Sum:   h.Sum(),
				Mean:  h.Mean(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
			}
		})
	}
	return s
}

// Sum adds up a counter family: the plain counter of that name, or every
// series of a labelled one — cluster.retry totals cluster.retry{node=…}.
func (s *Snapshot) Sum(family string) int64 {
	var n int64
	for name, v := range s.Counters {
		if name == family || strings.HasPrefix(name, family+"{") {
			n += v
		}
	}
	return n
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only maps of numbers and strings; marshal
		// cannot fail.
		panic("obs: snapshot marshal: " + err.Error())
	}
	return append(b, '\n')
}
