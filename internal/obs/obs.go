// Package obs is the framework's observability layer: a dependency-free
// metrics registry of atomic counters and fixed-bucket histograms with
// p50/p95/p99 estimation, plus the sliding windows and SLO tables that
// judge a server by its recent past. Operations are
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

// Registry holds named metric families, one collection per kind. A plain
// metric is the one series of a family with no label key. The zero value
// is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Family[*Counter]
	hists    map[string]*Family[*Histogram]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Family[*Counter]),
		hists:    make(map[string]*Family[*Histogram]),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. The cluster and vault
// resolve their metrics from it unless explicitly pointed elsewhere.
func Default() *Registry { return defaultRegistry }

func newCounter([]float64) *Counter { return &Counter{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return family(r, r.counters, name, "", nil, newCounter).With("")
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
