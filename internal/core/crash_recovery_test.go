package core

// The crash-recovery matrix: every injected crash point × every
// shard-mutating vault operation, against the disk backend. Each cell
// kills the store at its precise instant (simulating kill -9 with the
// page cache lost), reopens the directory, and audits the durability
// contract:
//
//   - zero orphaned stages after replay,
//   - no mixed-epoch stripes and no partial stripes (an interrupted
//     multi-shard commit lands entirely or not at all),
//   - the victim's stripes — every chunk, every batch member — are all
//     or nothing: zero bytes or exactly what the op commits,
//   - after re-driving the one legitimately partial operation (delete,
//     which is per-key), StoredBytes returns exactly to baseline.

import (
	"bytes"
	"context"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
)

func TestCrashRecoveryMatrix(t *testing.T) {
	const nodes = 4
	keepData := bytes.Repeat([]byte("K"), 100)
	smallData := bytes.Repeat([]byte("V"), 100) // one chunk (< chunk size)
	bigData := bytes.Repeat([]byte("W"), 900)   // chunked at chunkSize 256
	// Two 150-byte members pack into a 333-byte blob: two chunks at 256.
	putBatched := func(v *Vault) error {
		return v.putBatch(context.Background(), []*pendingPut{
			{id: "victim", data: bytes.Repeat([]byte("B"), 150)},
			{id: "victim2", data: bytes.Repeat([]byte("C"), 150)},
		})
	}
	points := []struct {
		name string
		cp   diskstore.CrashPoint
	}{
		{"mid-segment-append", diskstore.CrashMidSegmentAppend},
		{"before-wal-sync", diskstore.CrashBeforeWALSync},
		{"after-wal-sync", diskstore.CrashAfterWALSync},
	}
	ops := []struct {
		name   string
		victim []byte // nil: the op creates the victim itself
		isDel  bool
		run    func(v *Vault) error
		key    string // cluster object id holding the victim's stripes
	}{
		{"put", nil, false, func(v *Vault) error { return v.Put(context.Background(), "victim", smallData) }, "victim"},
		{"put-chunked", nil, false, func(v *Vault) error { return v.Put(context.Background(), "victim", bigData) }, "victim"},
		{"put-batched", nil, false, putBatched, batchIDPrefix + "1"},
		{"renew", smallData, false, func(v *Vault) error { return v.RenewShares(context.Background(), "victim") }, "victim"},
		{"renew-chunked", bigData, false, func(v *Vault) error { return v.RenewShares(context.Background(), "victim") }, "victim"},
		{"delete", bigData, true, func(v *Vault) error { return v.DeleteContext(context.Background(), "victim") }, "victim"},
	}
	setup := func(t *testing.T, c *cluster.Cluster, victim []byte) *Vault {
		t.Helper()
		v, err := NewVault(c, Erasure{K: 2, N: nodes}, WithGroup(group.Test()), WithChunkSize(256))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Put(context.Background(), "keep", keepData); err != nil {
			t.Fatal(err)
		}
		if victim != nil {
			if err := v.Put(context.Background(), "victim", victim); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}

	for _, op := range ops {
		for _, pt := range points {
			t.Run(op.name+"/"+pt.name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := store.Config{Backend: store.BackendDisk, Dir: dir}
				// What the victim's stripes hold once the op commits: the
				// same op on a memory cluster (RS is deterministic).
				mem := cluster.New(nodes, nil)
				if err := op.run(setup(t, mem, op.victim)); err != nil {
					t.Fatal(err)
				}
				full := mem.ObjectBytes(op.key)

				c, err := cluster.Open(nodes, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				v := setup(t, c, op.victim)
				keepBytes := c.ObjectBytes("keep")

				ds := c.Store().(*diskstore.Store)
				ds.SetCrashPoint(pt.cp)
				opErr := op.run(v)
				ds.SetCrashPoint(diskstore.CrashNone)
				crashed := false
				if _, _, err := ds.Node(0).Get(store.ShardKey{}); err != nil {
					crashed = true // the armed point fired; the store is dead
				}
				if crashed && !op.isDel && opErr == nil {
					// Put/renew surface the commit failure; delete is
					// best-effort and may legitimately swallow it.
					t.Errorf("%s returned nil despite crash", op.name)
				}
				c.Close()

				// Reopen and audit.
				c2, err := cluster.Open(nodes, nil, cfg)
				if err != nil {
					t.Fatalf("reopen after %s/%s: %v", op.name, pt.name, err)
				}
				defer c2.Close()
				if n := c2.StagedCount(); n != 0 {
					t.Errorf("%d orphaned stages survived recovery", n)
				}
				// Stripe audit across every node's snapshot: single epoch
				// per object, and — except for the per-key delete — every
				// present (object, chunk) stripe held by all nodes.
				type stripe struct {
					obj   string
					chunk int
				}
				counts := map[stripe]int{}
				epochs := map[string]map[int]bool{}
				for node := 0; node < nodes; node++ {
					snap, err := c2.Snapshot(node)
					if err != nil {
						t.Fatal(err)
					}
					for _, sh := range snap {
						counts[stripe{sh.Key.Object, sh.Key.Chunk}]++
						if epochs[sh.Key.Object] == nil {
							epochs[sh.Key.Object] = map[int]bool{}
						}
						epochs[sh.Key.Object][sh.Epoch] = true
					}
				}
				for obj, es := range epochs {
					if len(es) != 1 {
						t.Errorf("object %s: mixed-epoch stripe %v", obj, es)
					}
				}
				if !op.isDel {
					for sk, n := range counts {
						if n != nodes {
							t.Errorf("partial stripe %s chunk %d: on %d/%d nodes", sk.obj, sk.chunk, n, nodes)
						}
					}
					// The victim is all-or-nothing: nothing (a rolled-back
					// put), or every chunk of the committed write — for a
					// renewal, the pre-op and renewed stripes are the same
					// size — never a fraction.
					if vb := c2.ObjectBytes(op.key); vb != 0 && vb != full {
						t.Errorf("victim bytes = %d, want 0 or %d", vb, full)
					}
				}
				if kb := c2.ObjectBytes("keep"); kb != keepBytes {
					t.Errorf("bystander object damaged: %d bytes, want %d", kb, keepBytes)
				}

				// Re-drive the delete (the one operation that is per-key,
				// so a crash legitimately leaves it half done), then the
				// cluster must be back to exactly the keep-only baseline.
				for ch := 0; ch < 8; ch++ {
					for i := 0; i < nodes; i++ {
						if err := c2.Delete(i, cluster.ShardKey{Object: op.key, Index: i, Chunk: ch}); err != nil {
							t.Fatalf("re-driven delete: %v", err)
						}
					}
				}
				if vb := c2.ObjectBytes(op.key); vb != 0 {
					t.Errorf("victim bytes after re-driven delete = %d", vb)
				}
				if got := c2.StoredBytes(); got != keepBytes {
					t.Errorf("StoredBytes = %d, want baseline %d", got, keepBytes)
				}
				if n := c2.StagedCount(); n != 0 {
					t.Errorf("%d staged shards at end", n)
				}
				// The recovery report is reachable for diagnostics.
				rep := c2.Store().(*diskstore.Store).Recovery()
				t.Logf("%s/%s: crashed=%v recovery=%+v", op.name, pt.name, crashed, rep)
			})
		}
	}
}
