// Package trace is the hierarchical half of the observability layer: a
// request-scoped span tree propagated through context.Context across the
// whole I/O path — Vault.Put/Get/Renew/Scrub at the root, cluster
// fetches and staged writes below, per-node probe attempts at the leaves
// — with typed attributes (object, encoding, node, shard, bytes,
// attempt) and structured events (shard.discarded, node.down,
// backoff.slept, stage.committed). Where the flat metrics registry in
// internal/obs answers "how is the archive doing in aggregate", a trace
// answers "where did THIS degraded Get spend its time".
//
// A Tracer is the one way to time an operation. Every span that ends
// observes its duration into the "<name>.ok" or "<name>.err" latency
// histogram of the tracer's registry — the operation's one record. With
// tracing disabled (the default) Tracer.Start is flat mode: the
// histogram only, no span tree, context untouched, and zero allocations
// once the name's histogram pair is resolved (see
// TestFlatModeZeroAllocsWarm and BenchmarkSpanFlat).
//
// Enabled, completed traces land in a bounded in-memory ring (for the
// api server's /traces endpoint and post-hoc inspection) and stream to
// any registered Exporter (a JSONL journal file, an in-memory collector
// for tests). Memory is bounded per trace too: spans and events beyond
// fixed caps are counted in Trace.Dropped rather than accumulated.
//
// Concurrency: a Span value must be Ended exactly once and its
// SetAttrs/Event methods called from one goroutine at a time, but
// sibling spans of one trace may live on concurrent goroutines (the
// stripe read's probe fan-out does exactly this) — span completion is
// the only synchronised step, one short mutex acquisition per span.
package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securearchive/internal/obs"
)

// Bounds on per-trace memory. A vault op traces one span per probe
// attempt and a handful of pipeline stages, so real traces sit far below
// these; runaway instrumentation gets truncated and counted instead of
// eating the heap.
const (
	maxSpansPerTrace = 512
	maxEventsPerSpan = 64
)

// DefaultRingSize is how many completed traces a tracer retains for
// Recent.
const DefaultRingSize = 64

// Tail retention: how many "interesting" traces (any span erred, or the
// trace ran slower than the threshold) survive eviction from the main
// ring, and what counts as slow.
const (
	DefaultTailSize          = 16
	DefaultSlowTraceDuration = 100 * time.Millisecond
)

// Tracer creates spans and collects completed traces. Disabled (the
// default), it costs nothing beyond the flat histogram timing of its
// registry; see SetEnabled.
type Tracer struct {
	reg     *obs.Registry
	enabled atomic.Bool
	idState atomic.Uint64

	// hists caches the <name>.ok/<name>.err histogram pairs so span End
	// does not concatenate strings or take the registry's map lock on
	// the hot path.
	hmu   sync.RWMutex
	hists map[string]*histPair

	// rmu guards the completed-trace ring, the tail ring, and the
	// exporter list. It is taken once per completed trace, not per span.
	rmu       sync.Mutex
	ring      []*Trace
	pos       int
	completed uint64
	exporters []Exporter

	// tail is the second-chance ring: traces evicted from the main ring
	// that are interesting (erred or slow) land here instead of
	// vanishing, so a burst of healthy traffic cannot flush the one
	// degraded read an operator needs to see. Boring evictions (and
	// interesting ones falling off the tail itself) bump evicted.
	tail    []*Trace
	tailPos int
	evicted *obs.Counter
}

type histPair struct{ ok, err *obs.Histogram }

// New creates a tracer bridging span durations into reg's latency
// histograms. Tracing itself starts disabled: until SetEnabled(true),
// Start records flat histograms only.
func New(reg *obs.Registry) *Tracer {
	t := &Tracer{
		reg:     reg,
		hists:   make(map[string]*histPair),
		evicted: reg.Counter("obs.trace.evicted"),
	}
	t.idState.Store(uint64(time.Now().UnixNano()))
	return t
}

var defaultTracer = New(obs.Default())

// Default returns the process-wide tracer, bridged into obs.Default().
// The vault uses it unless pointed elsewhere (core.WithTracer).
func Default() *Tracer { return defaultTracer }

// SetEnabled flips span-tree recording. Disabled, Start degrades to the
// flat histogram timing.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether span trees are being recorded.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// AddExporter registers an exporter; every subsequently completed trace
// is handed to it synchronously on the goroutine that ended the root
// span.
func (t *Tracer) AddExporter(e Exporter) {
	t.rmu.Lock()
	t.exporters = append(t.exporters, e)
	t.rmu.Unlock()
}

// Completed returns the number of traces completed so far.
func (t *Tracer) Completed() uint64 {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.completed
}

// Recent returns up to n completed traces, oldest first (all retained
// traces when n <= 0). The returned slice is fresh; the traces are
// shared and must be treated as read-only.
func (t *Tracer) Recent(n int) []*Trace {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	total := len(t.ring)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*Trace, 0, total)
	for i := 0; i < total; i++ {
		idx := i
		if total == DefaultRingSize {
			idx = (t.pos + i) % DefaultRingSize
		}
		out = append(out, t.ring[idx])
	}
	return out[total-n:]
}

// newTraceID draws a non-zero pseudo-random ID (splitmix64 over an
// atomic counter seeded from the tracer's creation time).
func (t *Tracer) newTraceID() ID {
	for {
		v := mix64(t.idState.Add(0x9E3779B97F4A7C15))
		if v != 0 {
			return ID(v)
		}
	}
}

// mix64 is the splitmix64 finalizer (same mixer the cluster's fault
// plan uses; duplicated because neither package can import the other).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// active is one in-flight trace. Spans append themselves on End; the
// root span's End seals the trace and hands it to the tracer.
type active struct {
	t    *Tracer
	id   ID
	next atomic.Uint64 // span ID allocator; 1 is the root
	// root is the span ID whose End seals the trace. Locally rooted
	// traces use 1; remotely rooted halves (StartRemote) use a random
	// base so their span IDs cannot collide with the remote caller's
	// when the two halves merge in the ring.
	root  uint64
	drops atomic.Int64

	mu    sync.Mutex
	spans []*SpanRecord
}

// Span is a live span handle. The zero value is a valid no-op (every
// method returns immediately), which is how the disabled paths stay
// free. Copies share the same underlying record; End exactly once per
// logical span, from any one copy.
type Span struct {
	tr    *Tracer
	act   *active // nil in flat mode and for no-op spans
	rec   *SpanRecord
	name  string
	start time.Time
}

// Recording reports whether the span is capturing a trace record (false
// for no-op and flat-mode spans).
func (s Span) Recording() bool { return s.rec != nil }

// TraceID returns the owning trace's ID, or 0 when not recording.
func (s Span) TraceID() ID {
	if s.act == nil {
		return 0
	}
	return s.act.id
}

// SpanID returns this span's ID within its trace, or 0 when not
// recording. Propagation uses it as the outbound traceparent's
// parent-span field.
func (s Span) SpanID() uint64 {
	if s.rec == nil {
		return 0
	}
	return s.rec.SpanID
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying the span; Child and
// FromContext find it there. Flat-mode and no-op spans are not worth
// carrying — the context is returned unchanged.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if !s.Recording() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by the context, or a no-op span.
func FromContext(ctx context.Context) Span {
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}

// Start begins a span. If the context already carries a recording span,
// the new span joins that trace as its child regardless of which tracer
// created it; otherwise, with tracing enabled, it roots a new trace.
// With tracing disabled it degrades to the flat histogram timing of
// obs.Registry.Span (no tree, context unchanged), and with the
// registry's span timing also off it is a free no-op. The attrs slice
// is copied, never retained, so call sites may build it on the stack.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	if parent := FromContext(ctx); parent.Recording() {
		return parent.child(ctx, name, attrs)
	}
	if !t.enabled.Load() {
		return ctx, Span{tr: t, name: name, start: time.Now()} // flat mode
	}
	a := &active{t: t, id: t.newTraceID(), root: 1}
	a.next.Store(1)
	now := time.Now()
	rec := &SpanRecord{TraceID: a.id, SpanID: 1, Name: name, Start: now}
	if len(attrs) > 0 {
		rec.Attrs = append(rec.Attrs, attrs...)
	}
	s := Span{tr: t, act: a, rec: rec, name: name, start: now}
	return ContextWithSpan(ctx, s), s
}

// StartRemote begins a span that continues a trace started elsewhere —
// the server half of a propagated traceparent. The span roots a local
// active trace carrying the REMOTE trace ID, with its Parent pointing
// at the remote caller's span; when both halves complete, the ring
// merges them into one tree (see complete). Span IDs for the local half
// are allocated from a random 64-bit base (top bit set) so they cannot
// collide with the remote side's sequential IDs.
//
// If the context already carries a recording span the remote IDs are
// ignored (the in-process parent wins — it IS the same trace when the
// caller propagated its own context); with id or parentSpan zero, or
// tracing disabled, it degrades exactly like Start.
func (t *Tracer) StartRemote(ctx context.Context, name string, id ID, parentSpan uint64, attrs ...Attr) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	if parent := FromContext(ctx); parent.Recording() {
		return parent.child(ctx, name, attrs)
	}
	if id == 0 || parentSpan == 0 || !t.enabled.Load() {
		return t.Start(ctx, name, attrs...)
	}
	base := mix64(t.idState.Add(0x9E3779B97F4A7C15)) | 1<<63
	a := &active{t: t, id: id, root: base}
	a.next.Store(base)
	now := time.Now()
	rec := &SpanRecord{TraceID: id, SpanID: base, Parent: parentSpan, Name: name, Start: now, Remote: true}
	if len(attrs) > 0 {
		rec.Attrs = append(rec.Attrs, attrs...)
	}
	s := Span{tr: t, act: a, rec: rec, name: name, start: now}
	return ContextWithSpan(ctx, s), s
}

// Child begins a child of the span carried by the context, or a no-op
// span when the context carries none (the cluster layer uses this: it
// traces only when a vault-level span is ambient). The attrs slice is
// copied, never retained.
func Child(ctx context.Context, name string, attrs ...Attr) (context.Context, Span) {
	parent := FromContext(ctx)
	if !parent.Recording() {
		return ctx, Span{}
	}
	return parent.child(ctx, name, attrs)
}

func (s Span) child(ctx context.Context, name string, attrs []Attr) (context.Context, Span) {
	now := time.Now()
	rec := &SpanRecord{
		TraceID: s.act.id,
		SpanID:  s.act.next.Add(1),
		Parent:  s.rec.SpanID,
		Name:    name,
		Start:   now,
	}
	if len(attrs) > 0 {
		rec.Attrs = append(rec.Attrs, attrs...)
	}
	c := Span{tr: s.tr, act: s.act, rec: rec, name: name, start: now}
	return ContextWithSpan(ctx, c), c
}

// SetAttrs appends attributes to the span (results discovered after
// Start: bytes fetched, shards committed). No-op when not recording.
func (s Span) SetAttrs(attrs ...Attr) {
	if s.rec == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// Event records a structured event at the current offset into the span.
// Events beyond the per-span cap are counted as dropped, not stored.
// The attrs slice is copied, never retained.
func (s Span) Event(name string, attrs ...Attr) {
	if s.rec == nil {
		return
	}
	if len(s.rec.Events) >= maxEventsPerSpan {
		s.act.drops.Add(1)
		return
	}
	ev := Event{Name: name, OffsetNs: time.Since(s.start).Nanoseconds()}
	if len(attrs) > 0 {
		ev.Attrs = append([]Attr(nil), attrs...)
	}
	s.rec.Events = append(s.rec.Events, ev)
}

// End completes the span: the duration lands in the registry's
// "<name>.ok"/"<name>.err" histogram, the record joins its trace, and —
// when this is the root — the trace seals, enters the ring, and goes to
// the exporters. Children should
// end before their root; a straggler that ends after its root is
// silently dropped from the sealed trace.
func (s Span) End(err error) {
	if s.tr == nil {
		return
	}
	d := time.Since(s.start)
	s.tr.observeSpan(s.name, d, err)
	if s.rec == nil {
		return
	}
	s.rec.DurNs = d.Nanoseconds()
	if err != nil {
		s.rec.Err = err.Error()
	}
	s.act.finish(s.rec)
}

func (a *active) finish(rec *SpanRecord) {
	root := rec.SpanID == a.root
	a.mu.Lock()
	if root || len(a.spans) < maxSpansPerTrace {
		a.spans = append(a.spans, rec)
	} else {
		a.drops.Add(1)
	}
	spans := a.spans
	if root {
		// Seal: later appends (stragglers) must not mutate the slice the
		// sealed trace holds.
		a.spans = nil
	}
	a.mu.Unlock()
	if !root {
		return
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start.Equal(spans[j].Start) {
			return spans[i].SpanID < spans[j].SpanID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	a.t.complete(&Trace{
		ID:      a.id,
		Root:    rec.Name,
		Start:   rec.Start,
		DurNs:   rec.DurNs,
		Dropped: a.drops.Load(),
		Spans:   spans,
	})
}

func (t *Tracer) complete(tr *Trace) {
	t.rmu.Lock()
	// Cross-boundary join: if the ring already holds this trace's other
	// half (the server half of a propagated traceparent completes when
	// the response is written; the client half when its root span ends),
	// merge in place instead of occupying a second slot.
	merged := false
	for i, prev := range t.ring {
		if prev != nil && prev.ID == tr.ID {
			tr = mergeTraces(prev, tr)
			t.ring[i] = tr
			merged = true
			break
		}
	}
	if !merged {
		if len(t.ring) < DefaultRingSize {
			t.ring = append(t.ring, tr)
		} else {
			t.retainOrEvict(t.ring[t.pos])
			t.ring[t.pos] = tr
			t.pos = (t.pos + 1) % DefaultRingSize
		}
	}
	t.completed++
	exps := t.exporters
	t.rmu.Unlock()
	for _, e := range exps {
		e.Export(tr)
	}
}

// retainOrEvict gives a trace falling off the main ring its second
// chance: interesting traces (erred or slow) move to the tail ring,
// boring ones — and interesting ones displaced off the tail — count as
// evicted. Called with rmu held.
func (t *Tracer) retainOrEvict(old *Trace) {
	if old == nil {
		return
	}
	if old.Interesting(DefaultSlowTraceDuration.Nanoseconds()) {
		if len(t.tail) < DefaultTailSize {
			t.tail = append(t.tail, old)
			return
		}
		displaced := t.tail[t.tailPos]
		t.tail[t.tailPos] = old
		t.tailPos = (t.tailPos + 1) % DefaultTailSize
		old = displaced
	}
	t.evicted.Inc()
}

// Tail returns up to n tail-retained traces (all when n <= 0), oldest
// first. Shared, read-only, like Recent.
func (t *Tracer) Tail(n int) []*Trace {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	total := len(t.tail)
	if n <= 0 || n > total {
		n = total
	}
	out := make([]*Trace, 0, total)
	for i := 0; i < total; i++ {
		idx := i
		if total == DefaultTailSize {
			idx = (t.tailPos + i) % DefaultTailSize
		}
		out = append(out, t.tail[idx])
	}
	return out[total-n:]
}

// mergeTraces combines two completed halves of one trace (same ID) into
// a single tree: spans interleave by start time, the root is the half
// whose root span has no parent (the originating side), and timing
// covers both halves.
func mergeTraces(a, b *Trace) *Trace {
	spans := make([]*SpanRecord, 0, len(a.Spans)+len(b.Spans))
	spans = append(spans, a.Spans...)
	spans = append(spans, b.Spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start.Equal(spans[j].Start) {
			return spans[i].SpanID < spans[j].SpanID
		}
		return spans[i].Start.Before(spans[j].Start)
	})
	m := &Trace{
		ID:      a.ID,
		Root:    a.Root,
		Start:   a.Start,
		DurNs:   a.DurNs,
		Dropped: a.Dropped + b.Dropped,
		Spans:   spans,
	}
	if b.Start.Before(m.Start) {
		m.Start = b.Start
	}
	endA := a.Start.Add(time.Duration(a.DurNs))
	endB := b.Start.Add(time.Duration(b.DurNs))
	if endB.After(endA) {
		endA = endB
	}
	m.DurNs = endA.Sub(m.Start).Nanoseconds()
	if rs := m.RootSpan(); rs != nil {
		m.Root = rs.Name
	}
	return m
}

// observeSpan records a span duration as the operation's one record:
// the "<name>.ok"/"<name>.err" histogram pair, resolved once per name and
// cached.
func (t *Tracer) observeSpan(name string, d time.Duration, err error) {
	t.hmu.RLock()
	p, ok := t.hists[name]
	t.hmu.RUnlock()
	if !ok {
		p = &histPair{
			ok:  t.reg.Histogram(name+".ok", obs.LatencyBuckets()),
			err: t.reg.Histogram(name+".err", obs.LatencyBuckets()),
		}
		t.hmu.Lock()
		if prev, ok2 := t.hists[name]; ok2 {
			p = prev
		} else {
			t.hists[name] = p
		}
		t.hmu.Unlock()
	}
	ns := float64(d.Nanoseconds())
	if err != nil {
		p.err.Observe(ns)
	} else {
		p.ok.Observe(ns)
	}
}
