package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"securearchive/internal/core"
	"securearchive/internal/sec"
	"securearchive/internal/store"
)

// span is one timed call. A root span is a client request (or a direct
// call into a layer); a child is a call one of the decorators below saw
// while that root was in flight. Times are ns from the recorder's start.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 for a root
	Trace  uint64 `json:"trace"`            // the root's id, shared by the request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) durMs() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps the traced run's spans in memory. The traced run has
// one client (W = 1), so every decorator call falls inside exactly one
// root: whichever is current. With the recorder off the decorators only
// forward, which is how the traced run takes its untraced reference ops
// on the same service.
type recorder struct {
	on  atomic.Bool
	cur atomic.Uint64 // id of the root in flight
	t0  time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock: ns since it was made.
func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// within returns the root spans of one name that started in iv.
func (r *recorder) within(name string, iv interval) []span {
	var out []span
	for _, s := range r.spans {
		if s.Parent == 0 && s.Name == name && s.Start >= iv.start && s.Start < iv.end {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// root times fn as a root span and makes it the parent of every
// decorator call made meanwhile.
func (r *recorder) root(name string, bytes int64, fn func() error) (time.Duration, error) {
	id := r.newID()
	r.cur.Store(id)
	start := time.Now()
	err := fn()
	end := time.Now()
	r.cur.Store(0)
	r.add(span{ID: id, Trace: id, Name: name, Bytes: bytes}, start, end)
	return end.Sub(start), err
}

// child records a decorator call under the root in flight.
func (r *recorder) child(name string, bytes int64, start time.Time) {
	end := time.Now()
	if parent := r.cur.Load(); parent != 0 {
		r.add(span{Parent: parent, Trace: parent, Name: name, Bytes: bytes}, start, end)
	}
}

func (r *recorder) add(s span, start, end time.Time) {
	s.Start, s.End = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timedEncoding reports every Encode and Decode of the wrapped encoding
// to the recorder and changes nothing else.
type timedEncoding struct {
	inner core.Encoding
	rec   *recorder
}

func (e timedEncoding) Name() string           { return e.inner.Name() }
func (e timedEncoding) Class() sec.Class       { return e.inner.Class() }
func (e timedEncoding) LeakageResilient() bool { return e.inner.LeakageResilient() }
func (e timedEncoding) Shards() (int, int)     { return e.inner.Shards() }

func (e timedEncoding) Encode(data []byte, rnd io.Reader) (*core.Encoded, error) {
	if !e.rec.on.Load() {
		return e.inner.Encode(data, rnd)
	}
	start := time.Now()
	enc, err := e.inner.Encode(data, rnd)
	e.rec.child("encoding.encode", int64(len(data)), start)
	return enc, err
}

func (e timedEncoding) Decode(enc *core.Encoded) ([]byte, error) {
	if !e.rec.on.Load() {
		return e.inner.Decode(enc)
	}
	start := time.Now()
	data, err := e.inner.Decode(enc)
	e.rec.child("encoding.decode", int64(len(data)), start)
	return data, err
}

// WithParallelism implements core.Parallelizable, so core.WithParallelism
// still reaches the wrapped encoding's worker bound.
func (e timedEncoding) WithParallelism(n int) core.Encoding {
	if p, ok := e.inner.(core.Parallelizable); ok {
		e.inner = p.WithParallelism(n)
	}
	return e
}

// timedStore reports the store calls on the request path — Stage, Get,
// Put and Delete on a node, CommitStage and AbortStage across nodes — to
// the recorder. Everything else is forwarded untimed.
type timedStore struct {
	store.Store
	rec   *recorder
	nodes []store.NodeStore
}

func newTimedStore(inner store.Store, rec *recorder) *timedStore {
	s := &timedStore{Store: inner, rec: rec}
	for i := 0; i < inner.Nodes(); i++ {
		s.nodes = append(s.nodes, timedNode{NodeStore: inner.Node(i), rec: rec})
	}
	return s
}

func (s *timedStore) Node(id int) store.NodeStore { return s.nodes[id] }

func (s *timedStore) CommitStage(stage string, epoch int) (int, error) {
	if !s.rec.on.Load() {
		return s.Store.CommitStage(stage, epoch)
	}
	start := time.Now()
	n, err := s.Store.CommitStage(stage, epoch)
	s.rec.child("store.commit", 0, start)
	return n, err
}

func (s *timedStore) AbortStage(stage string) (int, error) {
	if !s.rec.on.Load() {
		return s.Store.AbortStage(stage)
	}
	start := time.Now()
	n, err := s.Store.AbortStage(stage)
	s.rec.child("store.abort", 0, start)
	return n, err
}

type timedNode struct {
	store.NodeStore
	rec *recorder
}

func (n timedNode) Stage(stage string, sh store.Shard) error {
	if !n.rec.on.Load() {
		return n.NodeStore.Stage(stage, sh)
	}
	start := time.Now()
	err := n.NodeStore.Stage(stage, sh)
	n.rec.child("store.stage", int64(len(sh.Data)), start)
	return err
}

func (n timedNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	if !n.rec.on.Load() {
		return n.NodeStore.Get(key)
	}
	start := time.Now()
	sh, ok, err := n.NodeStore.Get(key)
	n.rec.child("store.get", int64(len(sh.Data)), start)
	return sh, ok, err
}

func (n timedNode) Put(sh store.Shard) error {
	if !n.rec.on.Load() {
		return n.NodeStore.Put(sh)
	}
	start := time.Now()
	err := n.NodeStore.Put(sh)
	n.rec.child("store.put", int64(len(sh.Data)), start)
	return err
}

func (n timedNode) Delete(key store.ShardKey) error {
	if !n.rec.on.Load() {
		return n.NodeStore.Delete(key)
	}
	start := time.Now()
	err := n.NodeStore.Delete(key)
	n.rec.child("store.delete", 0, start)
	return err
}
