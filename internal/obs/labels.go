package obs

import (
	"sync"
	"sync/atomic"
)

// Every metric is a Family: a name, at most one label key, and one series
// per label value. A plain metric is the family with no key and its one
// series under the empty value. Attribution — a node rotting, a tenant
// hammering the service, an encoding paying for its verification — is a
// keyed family ({node}, {tenant}, {encoding}). Series resolve through an
// atomic-pointer copy-on-write map, so the hot path is one lock-free map
// hit and zero allocations after a series' first touch (enforced by
// TestLabeledCounterZeroAllocs).
//
// Cardinality is bounded: a family holds at most maxSeries distinct
// series (DefaultMaxSeries unless raised with SetMaxSeries). Once full,
// unseen label values land in a shared overflow series rendered under
// OverflowValue, and every such landing bumps the registry's
// obs.labels.overflow counter — unbounded label spaces (an attacker
// minting tenants) degrade into one aggregate series instead of eating
// the heap, and the overflow counter says it happened.

// OverflowValue is the label value the shared overflow series renders
// under once a family's cardinality bound is hit.
const OverflowValue = "_overflow"

// DefaultMaxSeries is the per-family cardinality bound unless raised
// with SetMaxSeries.
const DefaultMaxSeries = 64

// Family is one named metric: every series of one kind (*Counter or
// *Histogram) under a fixed label key. The live map is behind
// an atomic pointer: readers load and index it with no lock; inserts
// copy-on-write under mu.
type Family[S any] struct {
	reg    *Registry
	name   string
	key    string    // "" for a plain metric
	bounds []float64 // histogram families only
	mk     func([]float64) S

	// overflowHit records whether this family ever overflowed, so the
	// overflow series only appears in snapshots once it means something.
	overflowHit atomic.Bool
	overflow    S

	mu        sync.Mutex
	maxSeries int
	series    atomic.Pointer[map[string]S]
}

func newFamily[S any](r *Registry, name, key string, bounds []float64, mk func([]float64) S) *Family[S] {
	b := append([]float64(nil), bounds...)
	f := &Family[S]{
		reg:       r,
		name:      name,
		key:       key,
		bounds:    b,
		mk:        mk,
		overflow:  mk(b),
		maxSeries: DefaultMaxSeries,
	}
	empty := make(map[string]S)
	f.series.Store(&empty)
	return f
}

// With returns the series for one label value (the empty value for a
// plain metric). Steady state is lock-free and allocation-free.
func (f *Family[S]) With(value string) S {
	if s, ok := (*f.series.Load())[value]; ok {
		return s
	}
	return f.miss(value)
}

// miss is the cold path: insert a new series (copy-on-write) or, past
// the cardinality bound, route to the overflow series.
func (f *Family[S]) miss(value string) S {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := *f.series.Load()
	if s, ok := m[value]; ok {
		return s
	}
	if len(m) >= f.maxSeries {
		f.overflowHit.Store(true)
		f.reg.Counter("obs.labels.overflow").Inc()
		return f.overflow
	}
	next := make(map[string]S, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	s := f.mk(f.bounds)
	next[value] = s
	f.series.Store(&next)
	return s
}

// SetMaxSeries raises (or lowers, affecting only future inserts) the
// family's cardinality bound. Call before traffic flows.
func (f *Family[S]) SetMaxSeries(n int) {
	if n < 1 {
		return
	}
	f.mu.Lock()
	f.maxSeries = n
	f.mu.Unlock()
}

// each visits every live series by its rendered name (see seriesName),
// then — if the family ever overflowed — the overflow series.
func (f *Family[S]) each(fn func(series string, s S)) {
	for v, s := range *f.series.Load() {
		fn(seriesName(f.name, f.key, v), s)
	}
	if f.overflowHit.Load() {
		fn(seriesName(f.name, f.key, OverflowValue), f.overflow)
	}
}
