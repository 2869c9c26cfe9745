package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
	"securearchive/internal/store"
	"securearchive/internal/store/memstore"
)

// hookStore wraps a backend so a test can hold a write at a chosen point
// and decide from what else reaches the store, not from a clock: stage
// runs before every node's Stage (an error fails the stage).
type hookStore struct {
	store.Store
	stage func(sh store.Shard) error
}

type hookNode struct {
	store.NodeStore
	s *hookStore
}

func (s *hookStore) Node(id int) store.NodeStore { return hookNode{s.Store.Node(id), s} }

func (n hookNode) Stage(stage string, sh store.Shard) error {
	if err := n.s.stage(sh); err != nil {
		return err
	}
	return n.NodeStore.Stage(stage, sh)
}

// hookVault is an Erasure 4+8 vault over a hooked
// memory store, with its own metrics registry.
func hookVault(t *testing.T, hs *hookStore) *Vault {
	t.Helper()
	v, err := NewVault(cluster.NewWithStore(hs, nil), Erasure{K: 4, N: 8},
		WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// overlapGuard bounds how long a held stage waits for the other put. It
// is not a measurement: an overlapping put arrives within milliseconds,
// and a serialised one never arrives, so the guard only turns a deadlock
// into a failure.
const overlapGuard = 10 * time.Second

// TestDistinctPutsOverlap: a Put on id "a" is held mid-stage until a
// Put on "b" stages its first shard. That happens only if puts on
// distinct ids run concurrently through the vault, so any vault-wide
// serialisation of writes fails it (after overlapGuard) while it passes
// on a single core.
func TestDistinctPutsOverlap(t *testing.T) {
	bStaged, aHeld := make(chan struct{}), make(chan struct{})
	var bOnce, aOnce sync.Once
	hs := &hookStore{Store: memstore.New(8)}
	hs.stage = func(sh store.Shard) error {
		switch {
		case sh.Key.Object == "b":
			bOnce.Do(func() { close(bStaged) })
		case sh.Key.Object == "a" && sh.Key.Index == 1:
			// Shard 0 is already staged, so node 0 is free for b.
			aOnce.Do(func() { close(aHeld) })
			select {
			case <-bStaged:
			case <-time.After(overlapGuard):
				return errors.New("b never staged while a was held mid-stage: distinct puts are serialised")
			}
		}
		return nil
	}
	v := hookVault(t, hs)

	dataA, dataB := fill("a", 2048), fill("b", 2048)
	errA := make(chan error, 1)
	go func() { errA <- v.Put(context.Background(), "a", dataA) }()
	<-aHeld
	if err := v.Put(context.Background(), "b", dataB); err != nil {
		t.Fatalf("put b: %v", err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("put a: %v", err)
	}
	for id, data := range map[string][]byte{"a": dataA, "b": dataB} {
		if got, err := v.Get(context.Background(), id); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: read back wrong bytes (err %v)", id, err)
		}
	}
}
