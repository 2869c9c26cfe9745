package obs

import (
	"encoding/json"
	"sort"
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

// CounterSeriesSnapshot is one labeled counter or gauge series: the label
// values (positionally matching the family's Keys) and the value.
type CounterSeriesSnapshot struct {
	Labels []string `json:"labels"`
	Value  int64    `json:"value"`
}

// HistogramSeriesSnapshot is one labeled histogram series.
type HistogramSeriesSnapshot struct {
	Labels []string `json:"labels"`
	HistogramSnapshot
}

// LabeledCounterSnapshot is one counter (or gauge) family: its label
// schema and every live series, sorted by label values with the overflow
// series (if ever hit) last.
type LabeledCounterSnapshot struct {
	Keys   []string                `json:"keys"`
	Series []CounterSeriesSnapshot `json:"series"`
}

// LabeledHistogramSnapshot is one histogram family.
type LabeledHistogramSnapshot struct {
	Keys   []string                  `json:"keys"`
	Series []HistogramSeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time export of a registry, ready for JSON
// (expvar-style dumps, archivectl stats). Map keys
// marshal sorted and labeled series are pre-sorted by label values, so
// output is stable across runs. Schema securearchive/obs/v2 adds the
// labeled_* sections; everything v1 consumers read is unchanged.
type Snapshot struct {
	Schema            string                              `json:"schema"`
	Counters          map[string]int64                    `json:"counters,omitempty"`
	Gauges            map[string]int64                    `json:"gauges,omitempty"`
	Histograms        map[string]HistogramSnapshot        `json:"histograms,omitempty"`
	LabeledCounters   map[string]LabeledCounterSnapshot   `json:"labeled_counters,omitempty"`
	LabeledGauges     map[string]LabeledCounterSnapshot   `json:"labeled_gauges,omitempty"`
	LabeledHistograms map[string]LabeledHistogramSnapshot `json:"labeled_histograms,omitempty"`
}

// SchemaVersion is the snapshot schema identifier emitted by Snapshot.
const SchemaVersion = "securearchive/obs/v2"

// Snapshot exports every metric currently in the registry. Metrics that
// have never been touched (zero counters, empty histograms) are still
// included — absence of traffic is itself a signal.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Schema:     SchemaVersion,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapHistogram(h)
	}
	if len(r.labeledCounters) > 0 {
		s.LabeledCounters = make(map[string]LabeledCounterSnapshot, len(r.labeledCounters))
		for name, lc := range r.labeledCounters {
			fs := LabeledCounterSnapshot{Keys: append([]string(nil), lc.f.keys...)}
			lc.f.each(func(labels []string, c *Counter) {
				fs.Series = append(fs.Series, CounterSeriesSnapshot{
					Labels: append([]string(nil), labels...),
					Value:  c.Load(),
				})
			})
			s.LabeledCounters[name] = fs
		}
	}
	if len(r.labeledGauges) > 0 {
		s.LabeledGauges = make(map[string]LabeledCounterSnapshot, len(r.labeledGauges))
		for name, lg := range r.labeledGauges {
			fs := LabeledCounterSnapshot{Keys: append([]string(nil), lg.f.keys...)}
			lg.f.each(func(labels []string, g *Gauge) {
				fs.Series = append(fs.Series, CounterSeriesSnapshot{
					Labels: append([]string(nil), labels...),
					Value:  g.Load(),
				})
			})
			s.LabeledGauges[name] = fs
		}
	}
	if len(r.labeledHists) > 0 {
		s.LabeledHistograms = make(map[string]LabeledHistogramSnapshot, len(r.labeledHists))
		for name, lh := range r.labeledHists {
			fs := LabeledHistogramSnapshot{Keys: append([]string(nil), lh.f.keys...)}
			lh.f.each(func(labels []string, h *Histogram) {
				fs.Series = append(fs.Series, HistogramSeriesSnapshot{
					Labels:            append([]string(nil), labels...),
					HistogramSnapshot: snapHistogram(h),
				})
			})
			s.LabeledHistograms[name] = fs
		}
	}
	return s
}

func snapHistogram(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Series looks up one labeled-counter series by family name and label
// values; ok is false when the family or series is absent. Tests use it
// to read breakdowns out of an exported snapshot.
func (s *Snapshot) Series(family string, labels ...string) (int64, bool) {
	fs, ok := s.LabeledCounters[family]
	if !ok {
		return 0, false
	}
	for _, se := range fs.Series {
		if labelsEqual(se.Labels, labels) {
			return se.Value, true
		}
	}
	return 0, false
}

func labelsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedKeys returns a map's keys in sorted order (shared by the
// Prometheus writer).
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
