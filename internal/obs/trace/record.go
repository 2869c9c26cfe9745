package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// ID identifies one trace: 64 bits, rendered as 16 lowercase hex digits
// everywhere (logs, JSONL journals, the /traces endpoint). Zero is never
// a valid trace ID — it is the "not traced" sentinel.
type ID uint64

// String renders the ID as 16 hex digits.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// MarshalText renders the ID as hex, so JSON carries "3fa9c1..." rather
// than a decimal that overflows other tools' integer parsers.
func (id ID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText parses the hex form.
func (id *ID) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 16, 64)
	if err != nil {
		return fmt.Errorf("trace: bad id %q: %w", b, err)
	}
	*id = ID(v)
	return nil
}

// Kind discriminates an Attr's payload.
type Kind uint8

// Attr kinds. String values live in Str; ints in Num.
const (
	KindString Kind = iota
	KindInt
)

// Attr is one typed span or event attribute. The payload is stored
// unboxed (no interface values), so building attrs on a hot path does
// not allocate per attribute.
type Attr struct {
	Key  string `json:"k"`
	Kind Kind   `json:"t"`
	Str  string `json:"s,omitempty"`
	Num  int64  `json:"n,omitempty"`
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindString, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Kind: KindInt, Num: int64(v)} }

// Int64 builds an integer attribute from an int64 (byte counts, delays).
func Int64(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Num: v} }

// ValueString renders the attribute's payload for display.
func (a Attr) ValueString() string {
	if a.Kind == KindString {
		return a.Str
	}
	return strconv.FormatInt(a.Num, 10)
}

// Event is a point-in-time occurrence inside a span — a shard discarded,
// a stage committed, a backoff slept. Offset is relative to the span's
// start, so events order within their span without a second clock read
// at render time.
type Event struct {
	Name     string `json:"name"`
	OffsetNs int64  `json:"offset_ns"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// SpanRecord is one completed span as exported: identity, hierarchy,
// timing, typed attributes and events. Span IDs are sequential within
// their trace starting at 1 (the root), so Parent == 0 marks the root
// and parent/child edges read directly off the records.
type SpanRecord struct {
	TraceID ID        `json:"trace_id"`
	SpanID  uint64    `json:"span_id"`
	Parent  uint64    `json:"parent_id,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	DurNs   int64     `json:"dur_ns"`
	Err     string    `json:"err,omitempty"`
	// Remote marks a span whose parent lives in another process (the
	// server half of a propagated traceparent): Parent is the remote
	// caller's span ID and may be absent from a server-only trace.
	Remote bool    `json:"remote,omitempty"`
	Attrs  []Attr  `json:"attrs,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// Attr returns the value of the named attribute and whether it exists.
func (r *SpanRecord) Attr(key string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Trace is one completed trace: the root span's identity and timing plus
// every finished span, ordered by start time.
type Trace struct {
	ID    ID        `json:"trace_id"`
	Root  string    `json:"root"`
	Start time.Time `json:"start"`
	DurNs int64     `json:"dur_ns"`
	// Dropped counts spans and events discarded by the per-trace bounds
	// (maxSpansPerTrace, maxEventsPerSpan) — nonzero means the record is
	// a prefix of what happened, not all of it.
	Dropped int64         `json:"dropped,omitempty"`
	Spans   []*SpanRecord `json:"spans"`
}

// RootSpan returns the trace's root span: the span with Parent == 0,
// or — for a server-only trace whose root points at a remote parent —
// the earliest span whose parent is not in the trace. Nil only for an
// empty trace.
func (t *Trace) RootSpan() *SpanRecord {
	byID := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		byID[s.SpanID] = true
	}
	var fallback *SpanRecord
	for _, s := range t.Spans {
		if s.Parent == 0 {
			return s
		}
		if fallback == nil && !byID[s.Parent] {
			fallback = s
		}
	}
	return fallback
}

// Interesting reports whether the trace is worth tail-retaining: any
// span erred, spans or events were dropped, or the whole trace ran at
// least slowNs.
func (t *Trace) Interesting(slowNs int64) bool {
	if t.Dropped > 0 || (slowNs > 0 && t.DurNs >= slowNs) {
		return true
	}
	for _, s := range t.Spans {
		if s.Err != "" {
			return true
		}
	}
	return false
}

// Children returns the spans whose parent is the given span ID, in
// start order.
func (t *Trace) Children(parent uint64) []*SpanRecord {
	var out []*SpanRecord
	for _, s := range t.Spans {
		if s.Parent == parent && s.SpanID != s.Parent {
			out = append(out, s)
		}
	}
	return out
}

// EventCount counts events with the given name across every span.
func (t *Trace) EventCount(name string) int {
	n := 0
	for _, s := range t.Spans {
		for _, e := range s.Events {
			if e.Name == name {
				n++
			}
		}
	}
	return n
}

// Depth returns the maximum nesting depth: 1 for a root-only trace,
// 3 for vault → fetch → probe.
func (t *Trace) Depth() int {
	byID := make(map[uint64]*SpanRecord, len(t.Spans))
	for _, s := range t.Spans {
		byID[s.SpanID] = s
	}
	max := 0
	for _, s := range t.Spans {
		d := 0
		for cur := s; cur != nil && d <= len(t.Spans); cur = byID[cur.Parent] {
			d++
		}
		if d > max {
			max = d
		}
	}
	return max
}

// MarshalJSON guards against accidental schema drift: a Trace always
// marshals with its spans present (never null).
func (t *Trace) MarshalJSON() ([]byte, error) {
	type alias Trace
	a := (*alias)(t)
	if a.Spans == nil {
		a.Spans = []*SpanRecord{}
	}
	return json.Marshal(a)
}
