// Package memstore is the in-memory store.Store: per-node maps guarded
// by per-node mutexes — exactly the storage the cluster simulation
// started with, extracted behind the NodeStore interface. It is the
// fast path for tests, benchmarks and simulations where at-rest
// durability is irrelevant, and the behavioural reference the disk
// backend is differentially tested against.
//
// It keeps the slices it is handed: Put and Stage store sh.Data as is,
// and Get returns the stored slice, so a shard's bytes are never copied
// on their way in or out (store.NodeStore's ownership rule). Corrupt
// replaces a shard's bytes with a damaged copy instead of flipping the
// bit in place, so a slice a reader already holds never changes under
// it. Only Snapshot copies.
package memstore

import (
	"sync"

	"securearchive/internal/store"
)

// Store implements store.Store over per-node maps.
type Store struct {
	nodes []*nodeStore
}

// New creates a memory-backed store for n nodes.
func New(n int) *Store {
	s := &Store{nodes: make([]*nodeStore, n)}
	for i := range s.nodes {
		s.nodes[i] = &nodeStore{
			shards: make(map[store.ShardKey]store.Shard),
			staged: make(map[store.ShardKey]stagedShard),
		}
	}
	return s
}

// Nodes returns the node count.
func (s *Store) Nodes() int { return len(s.nodes) }

// Node returns one node's store.
func (s *Store) Node(id int) store.NodeStore { return s.nodes[id] }

// CommitStage promotes every shard staged under the token across all
// nodes, stamping each with the epoch. The per-node key swap cannot fail
// partway: each node's flip happens under its lock, and no code path
// observes a node's staging area except through the same lock.
func (s *Store) CommitStage(stage string, epoch int) (int, error) {
	committed := 0
	for _, n := range s.nodes {
		n.mu.Lock()
		for key, st := range n.staged {
			if st.stage != stage {
				continue
			}
			st.sh.Epoch = epoch
			n.shards[key] = st.sh
			delete(n.staged, key)
			committed++
		}
		n.mu.Unlock()
	}
	return committed, nil
}

// AbortStage drops every shard staged under the token across all nodes.
func (s *Store) AbortStage(stage string) (int, error) {
	dropped := 0
	for _, n := range s.nodes {
		n.mu.Lock()
		for key, st := range n.staged {
			if st.stage != stage {
				continue
			}
			delete(n.staged, key)
			dropped++
		}
		n.mu.Unlock()
	}
	return dropped, nil
}

// Close is a no-op for the memory backend.
func (s *Store) Close() error { return nil }

// stagedShard is one shard parked in a node's staging area.
type stagedShard struct {
	stage string
	sh    store.Shard
}

// nodeStore is one node's maps.
type nodeStore struct {
	mu     sync.Mutex
	shards map[store.ShardKey]store.Shard
	staged map[store.ShardKey]stagedShard
}

func (n *nodeStore) Put(sh store.Shard) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shards[sh.Key] = sh
	return nil
}

func (n *nodeStore) Get(key store.ShardKey) (store.Shard, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh, ok := n.shards[key]
	return sh, ok, nil
}

func (n *nodeStore) Delete(key store.ShardKey) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.shards, key)
	delete(n.staged, key)
	return nil
}

func (n *nodeStore) Stage(stage string, sh store.Shard) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.staged[sh.Key] = stagedShard{stage: stage, sh: sh}
	return nil
}

func (n *nodeStore) StagedOwner(key store.ShardKey) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.staged[key]
	return st.stage, ok
}

func (n *nodeStore) StagedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.staged)
}

func (n *nodeStore) ShardLen(key store.ShardKey) (int, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh, ok := n.shards[key]
	return len(sh.Data), ok
}

func (n *nodeStore) Corrupt(key store.ShardKey, bit int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	sh, ok := n.shards[key]
	if !ok || len(sh.Data) == 0 || bit < 0 || bit >= len(sh.Data)*8 {
		return false
	}
	sh.Data = append([]byte(nil), sh.Data...)
	sh.Data[bit/8] ^= 1 << (bit % 8)
	n.shards[key] = sh
	return true
}

func (n *nodeStore) Snapshot() ([]store.Shard, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]store.Shard, 0, len(n.shards))
	for _, sh := range n.shards {
		out = append(out, store.Shard{Key: sh.Key, Epoch: sh.Epoch, Data: append([]byte(nil), sh.Data...)})
	}
	return out, nil
}

func (n *nodeStore) StoredBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for _, sh := range n.shards {
		total += int64(len(sh.Data))
	}
	for _, st := range n.staged {
		total += int64(len(st.sh.Data))
	}
	return total
}

func (n *nodeStore) ObjectBytes(object string) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for k, sh := range n.shards {
		if k.Object == object {
			total += int64(len(sh.Data))
		}
	}
	for k, st := range n.staged {
		if k.Object == object {
			total += int64(len(st.sh.Data))
		}
	}
	return total
}
