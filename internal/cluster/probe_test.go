package cluster

import (
	"context"
	"slices"
	"sync"
	"testing"

	"securearchive/internal/store"
	"securearchive/internal/store/memstore"
)

// parkingStore is a mem store whose Gets park until `park` of them are
// waiting at once, then all go ahead together; later Gets pass straight
// through. It counts every Get and records which nodes served one.
type parkingStore struct {
	*memstore.Store
	park    int
	release chan struct{}

	mu    sync.Mutex
	gets  int
	nodes []int
}

type parkingNode struct {
	store.NodeStore
	s  *parkingStore
	id int
}

func (s *parkingStore) Node(id int) store.NodeStore {
	return parkingNode{NodeStore: s.Store.Node(id), s: s, id: id}
}

func (n parkingNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	n.s.mu.Lock()
	n.s.gets++
	n.s.nodes = append(n.s.nodes, n.id)
	if n.s.gets == n.s.park {
		close(n.s.release)
	}
	n.s.mu.Unlock()
	<-n.s.release
	return n.NodeStore.Get(key)
}

// TestUnfaultedReadFetchesWantPlusTwo: a stripe read never has more than
// want+2 shards landed or in flight, so an unfaulted read of a 12-node
// stripe wanting 4 makes exactly 6 Gets, to nodes 0–5, when all its
// probes run at once. The store holds every Get until all six are in
// flight; a probe that went on to another node after its shard landed,
// while the read held fewer than 4, would make a seventh.
func TestUnfaultedReadFetchesWantPlusTwo(t *testing.T) {
	const n, want = 12, 4
	ps := &parkingStore{Store: memstore.New(n), park: want + 2, release: make(chan struct{})}
	c := NewWithStore(ps, nil)
	for i := range n {
		if err := put(c, i, ShardKey{Object: "obj", Index: i}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	res := c.FetchChunkStripeCtx(context.Background(), "obj", 0, n, want, DefaultRetry, nil)
	slices.Sort(ps.nodes)
	if ps.gets != want+2 || !slices.Equal(ps.nodes, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("read made %d Gets to nodes %v, want %d to nodes 0-5", ps.gets, ps.nodes, want+2)
	}
	if res.Fetched != want+2 || res.Degraded() {
		t.Fatalf("Fetched = %d (degraded %v), want %d", res.Fetched, res.Degraded(), want+2)
	}
}
