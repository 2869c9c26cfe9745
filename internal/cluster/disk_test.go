package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
	"securearchive/internal/store/memstore"
)

// diskCluster opens a disk-backed cluster rooted in a test temp dir.
func diskCluster(t *testing.T, n int, dir string) *Cluster {
	t.Helper()
	c, err := Open(n, nil, store.Config{Backend: store.BackendDisk, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDiskBackendRoundTrip runs the cluster's basic contract — put, get,
// staging, delete, accounting — against the disk backend and proves the
// committed state survives a close-and-reopen.
func TestDiskBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := diskCluster(t, 3, dir)
	if _, ok := c.Store().(*diskstore.Store); !ok {
		t.Fatalf("Store() = %T, want the disk backend", c.Store())
	}
	key := ShardKey{Object: "obj", Index: 1}
	if err := put(c, 1, key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c.AdvanceEpoch()
	for i := 0; i < 3; i++ {
		k := ShardKey{Object: "striped", Index: i}
		if err := c.PutStagedCtx(context.Background(), i, "w", k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := c.CommitStage("w"); err != nil || n != 3 {
		t.Fatalf("CommitStage = %d, %v", n, err)
	}
	if got := c.StoredBytes(); got != 7+3 {
		t.Fatalf("StoredBytes = %d, want 10", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := diskCluster(t, 3, dir)
	defer c2.Close()
	sh, err := c2.GetCtx(context.Background(), 1, key)
	if err != nil || !bytes.Equal(sh.Data, []byte("payload")) || sh.Epoch != 0 {
		t.Fatalf("reopened get = %+v, %v", sh, err)
	}
	for i := 0; i < 3; i++ {
		sh, err := c2.GetCtx(context.Background(), i, ShardKey{Object: "striped", Index: i})
		if err != nil || sh.Epoch != 1 {
			t.Fatalf("striped[%d] after reopen = %+v, %v", i, sh, err)
		}
	}
	if got := c2.StagedCount(); got != 0 {
		t.Fatalf("StagedCount after reopen = %d", got)
	}
}

// TestDiskBackendBitRot proves injected rot lands in the segment bytes
// at rest: a CorruptProb=1 read damages the shard, and the damage is
// still there for the next read with faults cleared.
func TestDiskBackendBitRot(t *testing.T) {
	c := diskCluster(t, 1, t.TempDir())
	defer c.Close()
	key := ShardKey{Object: "r", Index: 0}
	orig := []byte("pristine")
	if err := put(c, 0, key, orig); err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(&FaultPlan{Seed: 1, Default: NodeFaults{CorruptProb: 1}})
	sh, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sh.Data, orig) {
		t.Fatal("CorruptProb=1 read returned pristine data")
	}
	c.SetFaultPlan(nil)
	sh2, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh2.Data, sh.Data) {
		t.Fatal("rot did not persist at rest")
	}
}

func TestOpenStoreConfig(t *testing.T) {
	if _, err := OpenStore(store.Config{Backend: "tape"}, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := OpenStore(store.Config{Backend: store.BackendDisk}, 2); err == nil {
		t.Fatal("disk backend without a directory accepted")
	}
	bk, err := OpenStore(store.Config{}, 2)
	if err != nil || bk.Nodes() != 2 {
		t.Fatalf("default backend: %v", err)
	}
	if _, ok := bk.(*memstore.Store); !ok {
		t.Fatalf("default backend = %T, want memory", bk)
	}
}

// TestDiskDeleteClearsStaged re-runs the delete-path regression against
// the disk backend (the WAL's delete record must drop the staged entry
// too, including across reopen — see TestDeleteClearsStaged for the
// memory half).
func TestDiskDeleteClearsStaged(t *testing.T) {
	dir := t.TempDir()
	c := diskCluster(t, 1, dir)
	key := ShardKey{Object: "o", Index: 0}
	if err := put(c, 0, key, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutStagedCtx(context.Background(), 0, "doomed", key, []byte("staged")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if n, b := c.StagedCount(), c.StoredBytes(); n != 0 || b != 0 {
		t.Fatalf("after delete: staged=%d bytes=%d", n, b)
	}
	if err := c.PutStagedCtx(context.Background(), 0, "fresh", key, []byte("reborn")); err != nil {
		t.Fatalf("re-put after delete: %v", err)
	}
	if _, err := c.CommitStage("fresh"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c2 := diskCluster(t, 1, dir)
	defer c2.Close()
	sh, err := c2.GetCtx(context.Background(), 0, key)
	if err != nil || !bytes.Equal(sh.Data, []byte("reborn")) {
		t.Fatalf("after reopen: %v %q", err, sh.Data)
	}
}

// TestDiskCommitErrorSurfaces proves a failed commit reaches the caller
// as an error (the memory backend can never fail here, so the disk
// backend is where the (int, error) contract earns its keep).
func TestDiskCommitErrorSurfaces(t *testing.T) {
	c := diskCluster(t, 1, t.TempDir())
	if err := c.PutStagedCtx(context.Background(), 0, "w", ShardKey{Object: "x", Index: 0}, []byte("d")); err != nil {
		t.Fatal(err)
	}
	c.Close() // dead store: every subsequent backend op errors
	if _, err := c.CommitStage("w"); err == nil {
		t.Fatal("commit on closed store succeeded")
	}
	if _, err := c.AbortStage("w"); err == nil {
		t.Fatal("abort on closed store succeeded")
	}
}

// TestDiskSnapshotSorted pins Snapshot's ordering contract on disk.
func TestDiskSnapshotSorted(t *testing.T) {
	c := diskCluster(t, 1, t.TempDir())
	defer c.Close()
	keys := []ShardKey{
		{Object: "b", Index: 1, Chunk: 0},
		{Object: "a", Index: 0, Chunk: 1},
		{Object: "a", Index: 1, Chunk: 0},
		{Object: "a", Index: 0, Chunk: 0},
	}
	for _, k := range keys {
		if err := put(c, 0, k, []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []ShardKey{
		{Object: "a", Index: 0, Chunk: 0},
		{Object: "a", Index: 1, Chunk: 0},
		{Object: "a", Index: 0, Chunk: 1},
		{Object: "b", Index: 1, Chunk: 0},
	}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d shards", len(snap))
	}
	for i := range want {
		if snap[i].Key != want[i] {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i].Key, want[i])
		}
	}
	if _, err := c.Snapshot(7); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("snapshot of bogus node: %v", err)
	}
}
