// Package obs is the framework's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms
// with p50/p95/p99 estimation) plus a lightweight span hook for timing
// operations. The survivable-storage systems the paper surveys (PASIS,
// POTSHARDS) treat read-path telemetry as the basis for repair
// scheduling; here the same counters back the degraded-read bug fixes,
// the attacksim availability tables, and archivectl stats and serve.
//
// Naming convention: metric names are dotted lowercase paths of the form
// "layer.op.outcome" — e.g. cluster.get.ok, cluster.fetch.discarded,
// vault.put.err. Per-node attribution appends a node suffix
// (cluster.fetch.discarded.node03). Latency histograms observe
// nanoseconds and carry a ".ns" or span ".ok"/".err" suffix; size
// histograms observe bytes; throughput histograms observe MB/s.
//
// Everything is safe for concurrent use. Counters and histograms are
// plain atomics with no locks on the observation path; the registry's
// map is only locked on first resolution of a name, so hot paths that
// pre-resolve their metrics (the cluster and vault do) pay a few atomic
// adds per operation. Spans allocate nothing when the registry is
// disabled.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
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

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry (or use Default).
type Registry struct {
	enabled atomic.Bool

	mu              sync.RWMutex
	counters        map[string]*Counter
	gauges          map[string]*Gauge
	hists           map[string]*Histogram
	labeledCounters map[string]*LabeledCounter
	labeledGauges   map[string]*LabeledGauge
	labeledHists    map[string]*LabeledHistogram
}

// NewRegistry creates an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:        make(map[string]*Counter),
		gauges:          make(map[string]*Gauge),
		hists:           make(map[string]*Histogram),
		labeledCounters: make(map[string]*LabeledCounter),
		labeledGauges:   make(map[string]*LabeledGauge),
		labeledHists:    make(map[string]*LabeledHistogram),
	}
	r.enabled.Store(true)
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. The cluster and vault
// resolve their metrics from it unless explicitly pointed elsewhere.
func Default() *Registry { return defaultRegistry }

// SetEnabled flips span timing on or off. Counters and histograms keep
// recording regardless (they are cheap atomics); disabling only turns
// Span into a no-op so fully untimed runs cost nothing.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether span timing is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
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
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		r.noteBoundsConflict(h, bounds)
		return h
	}
	r.mu.Lock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
		r.mu.Unlock()
		return h
	}
	r.mu.Unlock()
	// Raced with another creator: check against what actually won.
	r.noteBoundsConflict(h, bounds)
	return h
}

// noteBoundsConflict records a Histogram call whose bounds disagree with
// the histogram that already exists. Called without r.mu held (Counter
// takes the lock itself).
func (r *Registry) noteBoundsConflict(h *Histogram, bounds []float64) {
	if len(bounds) == 0 || boundsEqual(h.bounds, bounds) {
		return
	}
	r.Counter("obs.hist.bounds_conflict").Inc()
}

// nopSpanEnd is the shared no-op returned while the registry is
// disabled, so hot paths pay neither a closure allocation nor a clock
// read.
var nopSpanEnd = func(error) {}

// Span starts a timed span. The returned func records the elapsed time
// into the "<name>.ok" or "<name>.err" latency histogram depending on
// the error it is handed:
//
//	end := reg.Span("vault.put")
//	err := doPut()
//	end(err)
//
// When the registry is disabled, Span returns a shared no-op and
// allocates nothing.
func (r *Registry) Span(name string) func(err error) {
	if !r.enabled.Load() {
		return nopSpanEnd
	}
	start := time.Now()
	return func(err error) {
		d := float64(time.Since(start).Nanoseconds())
		suffix := ".ok"
		if err != nil {
			suffix = ".err"
		}
		r.Histogram(name+suffix, LatencyBuckets()).Observe(d)
	}
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
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, lc := range r.labeledCounters {
		lc.f.each(func(_ []string, c *Counter) { c.v.Store(0) })
	}
	for _, lg := range r.labeledGauges {
		lg.f.each(func(_ []string, g *Gauge) { g.v.Store(0) })
	}
	for _, lh := range r.labeledHists {
		lh.f.each(func(_ []string, h *Histogram) { h.reset() })
	}
}
