package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"securearchive/internal/obs"
)

// put makes data the live shard at key on node the one way the cluster
// offers: staged under a token of its own, then committed.
func put(c *Cluster, node int, key ShardKey, data []byte) error {
	stage := fmt.Sprintf("test:%d:%v", node, key)
	if err := c.PutStagedCtx(context.Background(), node, stage, key, data); err != nil {
		return err
	}
	_, err := c.CommitStage(stage)
	return err
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(4, nil)
	key := ShardKey{Object: "obj1", Index: 2}
	data := []byte("shard payload")
	if err := put(c, 1, key, data); err != nil {
		t.Fatal(err)
	}
	sh, err := c.GetCtx(context.Background(), 1, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sh.Data, data) {
		t.Fatal("shard data mismatch")
	}
	if sh.Epoch != 0 {
		t.Fatalf("epoch %d, want 0", sh.Epoch)
	}
}

func TestGetMissingShard(t *testing.T) {
	c := New(2, nil)
	if _, err := c.GetCtx(context.Background(), 0, ShardKey{Object: "nope", Index: 0}); !errors.Is(err, ErrNoSuchShard) {
		t.Fatalf("missing shard: %v", err)
	}
}

func TestNodeBounds(t *testing.T) {
	c := New(2, nil)
	if err := put(c, 5, ShardKey{}, nil); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("bad node put: %v", err)
	}
	if _, err := c.GetCtx(context.Background(), -1, ShardKey{}); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("bad node get: %v", err)
	}
}

func TestOfflineNode(t *testing.T) {
	c := New(3, nil)
	key := ShardKey{Object: "o", Index: 0}
	if err := put(c, 0, key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetOnline(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(context.Background(), 0, key); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("offline get: %v", err)
	}
	if err := put(c, 0, key, []byte("y")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("offline put: %v", err)
	}
	if err := c.SetOnline(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(context.Background(), 0, key); err != nil {
		t.Fatalf("restored get: %v", err)
	}
}

func TestEpochStamping(t *testing.T) {
	c := New(2, nil)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("v0"))
	c.AdvanceEpoch()
	c.AdvanceEpoch()
	put(c, 1, key, []byte("v2"))
	s0, _ := c.GetCtx(context.Background(), 0, key)
	s1, _ := c.GetCtx(context.Background(), 1, key)
	if s0.Epoch != 0 || s1.Epoch != 2 {
		t.Fatalf("epochs %d/%d, want 0/2", s0.Epoch, s1.Epoch)
	}
	if c.Epoch() != 2 {
		t.Fatalf("cluster epoch %d", c.Epoch())
	}
}

func TestPutReplacesAndRestamps(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("old"))
	c.AdvanceEpoch()
	put(c, 0, key, []byte("new"))
	sh, _ := c.GetCtx(context.Background(), 0, key)
	if string(sh.Data) != "new" || sh.Epoch != 1 {
		t.Fatalf("replace failed: %q at epoch %d", sh.Data, sh.Epoch)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	c := New(1, nil)
	put(c, 0, ShardKey{Object: "a", Index: 0}, []byte("aaa"))
	put(c, 0, ShardKey{Object: "b", Index: 1}, []byte("bbb"))
	snap, err := c.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d shards", len(snap))
	}
	// Sorted by object then index.
	if snap[0].Key.Object != "a" || snap[1].Key.Object != "b" {
		t.Fatal("snapshot not sorted")
	}
	snap[0].Data[0] = 'X'
	sh, _ := c.GetCtx(context.Background(), 0, ShardKey{Object: "a", Index: 0})
	if sh.Data[0] == 'X' {
		t.Fatal("snapshot aliases node storage")
	}
}

func TestAccounting(t *testing.T) {
	c := New(2, nil)
	put(c, 0, ShardKey{Object: "o", Index: 0}, make([]byte, 100))
	put(c, 1, ShardKey{Object: "o", Index: 1}, make([]byte, 100))
	c.GetCtx(context.Background(), 0, ShardKey{Object: "o", Index: 0})
	if c.StoredBytes() != 200 {
		t.Fatalf("stored %d, want 200", c.StoredBytes())
	}
	if c.ObjectBytes("o") != 200 {
		t.Fatalf("object bytes %d, want 200", c.ObjectBytes("o"))
	}
	if c.ObjectBytes("other") != 0 {
		t.Fatal("phantom object bytes")
	}
	if c.TotalBytesMoved() != 300 {
		t.Fatalf("moved %d, want 300", c.TotalBytesMoved())
	}
	if c.Puts() != 2 || c.Gets() != 1 {
		t.Fatalf("ops %d/%d, want 2/1", c.Puts(), c.Gets())
	}
}

func TestDelete(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("x"))
	if err := c.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetCtx(context.Background(), 0, key); !errors.Is(err, ErrNoSuchShard) {
		t.Fatalf("shard survived delete: %v", err)
	}
	if err := c.Delete(0, key); err != nil {
		t.Fatal("double delete errored")
	}
}

func TestRegions(t *testing.T) {
	c := New(8, []string{"x", "y"})
	regions := c.Regions()
	if len(regions) != 2 || regions[0] != "x" || regions[1] != "y" {
		t.Fatalf("regions = %v", regions)
	}
	d := New(3, nil)
	if len(d.Regions()) != 3 {
		t.Fatalf("default regions = %v", d.Regions())
	}
}

// TestDeleteClearsStaged is the regression test for the delete-path leak:
// Delete used to remove only the committed shard, so an entry still
// parked in the staging area survived — inflating StoredBytes and
// StagedCount forever and blocking a later re-Put of the same id with
// ErrDuplicateKey from the foreign stage.
func TestDeleteClearsStaged(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	if err := put(c, 0, key, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// A writer stages a rewrite, then the object is deleted mid-flight
	// (the writer never commits — its stage token dies with it).
	if err := c.PutStagedCtx(context.Background(), 0, "doomed-writer", key, []byte("staged")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if n := c.StagedCount(); n != 0 {
		t.Fatalf("StagedCount after delete = %d, want 0", n)
	}
	if b := c.StoredBytes(); b != 0 {
		t.Fatalf("StoredBytes after delete = %d, want 0", b)
	}
	// Re-archiving the same id must not hit ErrDuplicateKey.
	if err := c.PutStagedCtx(context.Background(), 0, "fresh-writer", key, []byte("reborn")); err != nil {
		t.Fatalf("re-put after delete: %v", err)
	}
	if n, err := c.CommitStage("fresh-writer"); err != nil || n != 1 {
		t.Fatalf("commit after delete = %d, %v", n, err)
	}
	sh, err := c.GetCtx(context.Background(), 0, key)
	if err != nil || !bytes.Equal(sh.Data, []byte("reborn")) {
		t.Fatalf("re-put shard: %v %q", err, sh.Data)
	}
}

// TestDeleteObservability pins Delete into the metrics surface: like
// every other data-path operation it is recorded once, as the
// cluster.delete.{ok,err} latency histogram pair.
func TestDeleteObservability(t *testing.T) {
	c := New(2, nil)
	reg := obs.NewRegistry()
	c.UseRegistry(reg)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("x"))
	if err := c.Delete(0, key); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(9, key); err == nil {
		t.Fatal("delete on bogus node succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["cluster.delete.ok"].Count; got != 1 {
		t.Fatalf("cluster.delete.ok count = %d, want 1", got)
	}
	if got := snap.Histograms["cluster.delete.err"].Count; got != 1 {
		t.Fatalf("cluster.delete.err count = %d, want 1", got)
	}
	// The write is on record too, as its staged shard and its commit, and
	// no counter shadows either pair.
	if got := snap.Histograms["cluster.staged.ok"].Count; got != 1 {
		t.Fatalf("cluster.staged.ok count = %d, want 1", got)
	}
	if got := snap.Counters["cluster.stage.commit"]; got != 1 {
		t.Fatalf("cluster.stage.commit = %d, want 1", got)
	}
	if _, ok := snap.Counters["cluster.delete.ok"]; ok {
		t.Fatal("cluster.delete.ok is still shadowed by a counter")
	}
}
