package cluster

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/store"
	"securearchive/internal/store/memstore"
)

// walkStore is a mem store that records every Get: the nodes served, in
// order, and the most Gets ever in flight at once. A Get to node holdNode
// parks until hold is closed; when gate is set, every Get parks until
// gateAt of them are in flight at once, then all go ahead together (gate
// is closed, once, for the test to see). failFirst[i] Gets to node i fail
// with ErrTransient before the node serves.
type walkStore struct {
	*memstore.Store
	holdNode int
	hold     chan struct{}
	gateAt   int
	gate     chan struct{}

	mu        sync.Mutex
	nodes     []int
	inFlight  int
	maxFlight int
	failFirst map[int]int
}

type walkNode struct {
	store.NodeStore
	s  *walkStore
	id int
}

func newWalkStore(n int) *walkStore {
	return &walkStore{Store: memstore.New(n), holdNode: -1, failFirst: map[int]int{}}
}

func (s *walkStore) Node(id int) store.NodeStore {
	return walkNode{NodeStore: s.Store.Node(id), s: s, id: id}
}

func (n walkNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	s := n.s
	s.mu.Lock()
	s.nodes = append(s.nodes, n.id)
	s.inFlight++
	s.maxFlight = max(s.maxFlight, s.inFlight)
	if s.gate != nil && s.inFlight == s.gateAt {
		close(s.gate)
		s.gateAt = -1
	}
	gate, fail := s.gate, s.failFirst[n.id] > 0
	if fail {
		s.failFirst[n.id]--
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()
	if gate != nil {
		<-gate
	}
	if n.id == s.holdNode {
		<-s.hold
	}
	if fail {
		return store.Shard{}, false, ErrTransient
	}
	return n.NodeStore.Get(key)
}

// served returns the nodes that served a Get, in order.
func (s *walkStore) served() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.nodes)
}

// walkCluster is a cluster of n nodes over ws, each holding shard i of
// "obj", on a registry of its own, whose stripe reads hedge after d.
func walkCluster(t *testing.T, ws *walkStore, n int, d time.Duration) (*Cluster, *obs.Registry) {
	t.Helper()
	c := NewWithStore(ws, nil)
	reg := obs.NewRegistry()
	c.UseRegistry(reg)
	c.hedgeAfter = d
	for i := range n {
		if err := put(c, i, ShardKey{Object: "obj", Index: i}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return c, reg
}

// TestUnfaultedReadWalksTheFirstWant: an unfaulted read of a 12-node
// stripe wanting 4 makes exactly 4 Gets, to nodes 0–3 in that order, one
// at a time. The hedge deadline is a second, which no Get here comes
// near.
func TestUnfaultedReadWalksTheFirstWant(t *testing.T) {
	const n, want = 12, 4
	ws := newWalkStore(n)
	c, _ := walkCluster(t, ws, n, time.Second)
	res := c.FetchChunkStripeCtx(context.Background(), "obj", 0, n, want, DefaultRetry, nil)
	if got := ws.served(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("read made Gets to nodes %v, want 0-3 in order", got)
	}
	if ws.maxFlight != 1 {
		t.Fatalf("%d Gets in flight at once, want 1", ws.maxFlight)
	}
	if res.Fetched != want || res.Degraded() {
		t.Fatalf("Fetched = %d (degraded %v), want %d", res.Fetched, res.Degraded(), want)
	}
}

// TestStalledProbeHedges: node 0's Get never returns on its own, so the
// caller's first probe stalls past the hedge deadline and
// the read fans out. Its walkers take nodes 1 to want+1 — want+2 shards
// landed or in flight — and the read completes once node 0 is released,
// with a "fetch.hedged" event on its "cluster.fetch" span. The store
// holds every Get until all want+2 are in flight, so no walker can find
// the read complete before taking its node.
func TestStalledProbeHedges(t *testing.T) {
	const n, want = 12, 4
	ws := newWalkStore(n)
	c, reg := walkCluster(t, ws, n, hedgeDeadline)
	ws.holdNode, ws.hold = 0, make(chan struct{})
	ws.gateAt, ws.gate = want+2, make(chan struct{})
	gate := ws.gate

	tr := trace.New(reg)
	tr.SetEnabled(true)
	mem := &trace.Mem{}
	tr.AddExporter(mem)
	done := make(chan *StripeResult, 1)
	go func() {
		ctx, root := tr.Start(context.Background(), "test.read")
		res := c.FetchChunkStripeCtx(ctx, "obj", 0, n, want, DefaultRetry, nil)
		root.End(nil)
		done <- res
	}()
	select {
	case <-gate:
	case <-time.After(10 * time.Second):
		t.Fatalf("read has %v in flight 10s after it began, want %d Gets", ws.served(), want+2)
	}
	got := ws.served()
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("hedged read made Gets to nodes %v, want 0-5", got)
	}
	select {
	case res := <-done:
		t.Fatalf("read returned (Fetched %d) while node 0's probe was still in flight", res.Fetched)
	default:
	}
	close(ws.hold)
	var res *StripeResult
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read still running 10s after node 0 was released")
	}
	if res.Fetched != want+2 || res.Degraded() {
		t.Fatalf("Fetched = %d (degraded %v), want %d", res.Fetched, res.Degraded(), want+2)
	}
	if got := ws.served(); len(got) != want+2 {
		t.Fatalf("read made Gets to nodes %v, want %d Gets", got, want+2)
	}
	traces := mem.Traces()
	if len(traces) != 1 || traces[0].EventCount("fetch.hedged") != 1 {
		t.Fatalf("want one trace with one fetch.hedged event, got %d traces", len(traces))
	}
}

// TestTransientNodeInsideTheWalk: a transient node inside the walk still
// leaves the read with want shards. One that recovers on its retry is
// probed again and serves; one that never recovers is recorded as a
// failure and the walk takes the next node. The hedge deadline is a
// second, longer than any retry backoff here, so the walk is serial.
func TestTransientNodeInsideTheWalk(t *testing.T) {
	const n, want = 12, 4
	for _, tc := range []struct {
		name      string
		failFirst int
		nodes     []int
		failures  int
	}{
		{"recovers", 1, []int{0, 1, 2, 2, 3}, 0},
		{"never", DefaultRetry.MaxAttempts, []int{0, 1, 2, 2, 2, 2, 3, 4}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := newWalkStore(n)
			c, reg := walkCluster(t, ws, n, time.Second)
			ws.failFirst[2] = tc.failFirst
			res := c.FetchChunkStripeCtx(context.Background(), "obj", 0, n, want, DefaultRetry, nil)
			if got := ws.served(); !slices.Equal(got, tc.nodes) {
				t.Fatalf("read made Gets to nodes %v, want %v", got, tc.nodes)
			}
			if ws.maxFlight != 1 {
				t.Fatalf("%d Gets in flight at once, want 1", ws.maxFlight)
			}
			if res.Fetched != want || len(res.Failures) != tc.failures {
				t.Fatalf("Fetched = %d, failures %v; want %d shards and %d failures",
					res.Fetched, res.Failures, want, tc.failures)
			}
			if tc.failures > 0 && (res.Failures[0].Node != 2 || !errors.Is(res.Failures[0].Err, ErrTransient)) {
				t.Fatalf("failure %v, want node 2 transient", res.Failures[0])
			}
			if got := reg.Snapshot().Sum("cluster.retry"); got != int64(tc.failFirst) {
				t.Fatalf("cluster.retry sums to %d, want %d", got, tc.failFirst)
			}
		})
	}
}

// TestSlowClusterReadsFanOut: on a cluster whose every node is slow,
// and whose cluster.get.ok histogram has learnt that latency, a read
// still fans out at the hedge deadline. Read after read, each costs
// about one node latency, not the want latencies of a serial walk. The
// deadline is the cluster's own (hedgeDeadline), not a pinned one.
func TestSlowClusterReadsFanOut(t *testing.T) {
	const n, want, latency = 8, 4, 25 * time.Millisecond
	c := New(n, nil)
	reg := obs.NewRegistry()
	c.UseRegistry(reg)
	for i := range n {
		if err := put(c, i, ShardKey{Object: "obj", Index: i}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h := reg.Histogram("cluster.get.ok", obs.LatencyBuckets())
	for range 1000 {
		h.Observe(float64(latency.Nanoseconds()))
	}
	c.SetFaultPlan(&FaultPlan{Seed: 1, Default: NodeFaults{Latency: latency}})
	for r := range 4 {
		start := time.Now()
		res := c.FetchChunkStripeCtx(context.Background(), "obj", 0, n, want, DefaultRetry, nil)
		// A serial walk sleeps want latencies at least; a fanned-out
		// read sleeps one, then waits for walkers that started with it.
		if d := time.Since(start); d >= want*latency {
			t.Fatalf("read %d took %v, want under %v (%d node latencies of %v)", r, d, want*latency, want, latency)
		}
		if res.Fetched < want || res.Degraded() {
			t.Fatalf("read %d: Fetched = %d (degraded %v), want %d", r, res.Fetched, res.Degraded(), want)
		}
	}
}
