// Package obs is the framework's observability layer: a dependency-free
// metrics registry of atomic counters, gauges, and fixed-bucket
// histograms with p50/p95/p99 estimation, plus the sliding windows and
// SLO tables that judge a server by its recent past. Operations are
// timed by internal/obs/trace, whose spans land here as latency
// histograms. The survivable-storage systems the paper surveys (PASIS,
// POTSHARDS) treat read-path telemetry as the basis for repair
// scheduling; here the same series back the degraded-read checks, the
// attacksim availability tables, and archivectl stats and serve.
//
// Naming convention: metric names are dotted lowercase paths,
// "layer.op" for an operation and "layer.thing.event" for an event
// count. A timed operation is recorded exactly once, as the latency
// histogram pair "<op>.ok"/"<op>.err" (nanoseconds); its count is the
// outcome count, so no counter shadows it. Size histograms observe
// bytes and throughput histograms MB/s. Attribution to a node, tenant
// or encoding is a label, never a name suffix: cluster.discard{node="05"}.
//
// Everything is safe for concurrent use. Observations are plain atomics;
// a series lookup is one lock-free map read, so hot paths that
// pre-resolve their series (the cluster and vault do) pay a few atomic
// adds per operation.
package obs

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry holds named metric families, one collection per kind. A plain
// metric is the one series of a family with no label key. The zero value
// is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Family[*Counter]
	gauges   map[string]*Family[*Gauge]
	hists    map[string]*Family[*Histogram]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Family[*Counter]),
		gauges:   make(map[string]*Family[*Gauge]),
		hists:    make(map[string]*Family[*Histogram]),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. The cluster and vault
// resolve their metrics from it unless explicitly pointed elsewhere.
func Default() *Registry { return defaultRegistry }

func newCounter([]float64) *Counter { return &Counter{} }
func newGauge([]float64) *Gauge     { return &Gauge{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return family(r, r.counters, name, "", nil, newCounter).With("")
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return family(r, r.gauges, name, "", nil, newGauge).With("")
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use; bounds must be sorted ascending.
//
// Contract: a histogram's bounds are fixed at creation. A later caller
// passing DIFFERENT bounds still gets the existing histogram — its
// observations land in the original buckets — but the mismatch is no
// longer silent: each such call increments the obs.hist.bounds_conflict
// counter, so a nonzero value there means two call sites disagree about
// a metric's bucketing and one of them is being misled. Passing nil (or
// empty) bounds never conflicts — it is the "look up, don't care about
// bucketing" form.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.LabeledHistogram(name, bounds, "").With("")
}

// LabeledCounter returns the named counter family keyed by one label,
// creating it on first use. Like histogram bounds, a family's key is
// fixed at creation: a later caller passing a DIFFERENT key still gets
// the existing family, and the mismatch bumps obs.labels.schema_conflict.
func (r *Registry) LabeledCounter(name, key string) *Family[*Counter] {
	return family(r, r.counters, name, key, nil, newCounter)
}

// LabeledHistogram returns the named histogram family keyed by one label;
// every series shares the bounds declared at creation (see Histogram and
// LabeledCounter for the two conflict contracts).
func (r *Registry) LabeledHistogram(name string, bounds []float64, key string) *Family[*Histogram] {
	return family(r, r.hists, name, key, bounds, newHistogram)
}

// family resolves name in one of the registry's collections, creating
// the family on first use and counting key or bounds conflicts after.
func family[S any](r *Registry, m map[string]*Family[S], name, key string, bounds []float64, mk func([]float64) S) *Family[S] {
	r.mu.RLock()
	f, ok := m[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = m[name]; !ok {
			f = newFamily(r, name, key, bounds, mk)
			m[name] = f
		}
		r.mu.Unlock()
	}
	if ok && f.key != key {
		r.Counter("obs.labels.schema_conflict").Inc()
	}
	if ok && len(bounds) > 0 && !boundsEqual(f.bounds, bounds) {
		r.Counter("obs.hist.bounds_conflict").Inc()
	}
	return f
}

// Reset zeroes every metric in place. Pointers handed out earlier stay
// valid (they observe into the zeroed state), so instrumented components
// need no re-wiring between measurement windows.
//
// Reset holds the registry lock exclusively, so it cannot interleave
// with Snapshot: a snapshot sees every histogram either entirely before
// or entirely after a concurrent Reset, never a half-zeroed bucket set.
// (Observations racing either call are individually atomic and may land
// on either side of the boundary; that skew is inherent to lock-free
// recording and bounded by the in-flight operations.)
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.counters {
		f.each(func(_ string, c *Counter) { c.v.Store(0) })
	}
	for _, f := range r.gauges {
		f.each(func(_ string, g *Gauge) { g.v.Store(0) })
	}
	for _, f := range r.hists {
		f.each(func(_ string, h *Histogram) { h.reset() })
	}
}

// seriesName renders one series' identity: the family name for a plain
// metric, name{key="value"} for a labelled one. It is the series' key in
// a Snapshot and, with the name sanitised, its Prometheus name.
func seriesName(name, key, value string) string {
	if key == "" {
		return name
	}
	return name + "{" + key + `="` + escapeLabelValue(value) + `"}`
}

// escapeLabelValue applies the exposition-format escaping rules for
// quoted label values — backslash, double-quote, and newline — since
// tenant names are caller-controlled.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
