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
//   - the victim's stripes — every chunk — are all or nothing: exactly
//     the bytes it held before the op, or exactly what the op commits,
//   - after re-driving the one legitimately partial operation (delete,
//     which is per-key), StoredBytes returns exactly to baseline.

import (
	"bytes"
	"context"
	"io"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/store"
	"securearchive/internal/store/diskstore"
)

func TestCrashRecoveryMatrix(t *testing.T) {
	const nodes = 4
	keepData := bytes.Repeat([]byte("K"), 100)
	smallData := bytes.Repeat([]byte("V"), 100) // one chunk (< chunk size)
	bigData := bytes.Repeat([]byte("W"), 900)   // chunked at chunkSize 256
	// A streamed put of a reader that cannot say its length: with chunks
	// above streamProbe the first read fills the probe buffer and moves
	// to a full chunk, and the rest follows as a second chunk.
	const streamChunk = 2 * streamProbe
	streamData := bytes.Repeat([]byte("S"), streamChunk+streamProbe/2)
	putStreamed := func(v *Vault) error {
		_, err := v.PutReader(context.Background(), "victim", struct{ io.Reader }{bytes.NewReader(streamData)})
		return err
	}
	scrub := func(v *Vault) error {
		rep, err := v.Scrub(context.Background(), "victim")
		if err == nil && !rep.Repaired {
			t.Error("scrub found nothing to repair")
		}
		return err
	}
	points := []struct {
		name string
		cp   diskstore.CrashPoint
	}{
		{"mid-segment-append", diskstore.CrashMidSegmentAppend},
		{"before-wal-sync", diskstore.CrashBeforeWALSync},
		{"after-wal-sync", diskstore.CrashAfterWALSync},
	}
	type matrixOp struct {
		name   string
		victim []byte // nil: the op creates the victim itself
		isDel  bool
		run    func(v *Vault) error
		chunk  int  // the vault's chunk size; 0 means 256
		rot    bool // flip a byte of the victim's node-1 chunk-1 shard before the op
	}
	ops := []matrixOp{
		{name: "put", run: func(v *Vault) error { return v.Put(context.Background(), "victim", smallData) }},
		{name: "put-chunked", run: func(v *Vault) error { return v.Put(context.Background(), "victim", bigData) }},
		{name: "put-streamed", run: putStreamed, chunk: streamChunk},
		{name: "renew", victim: smallData, run: func(v *Vault) error { return v.RenewShares(context.Background(), "victim") }},
		{name: "renew-chunked", victim: bigData, run: func(v *Vault) error { return v.RenewShares(context.Background(), "victim") }},
		// Same width, other size: every shard of every chunk is replaced.
		{name: "reencode", victim: bigData, run: func(v *Vault) error {
			v.Encoding = SecretSharing{T: 2, N: nodes}
			return v.RenewShares(context.Background(), "victim")
		}},
		{name: "scrub-repair", victim: bigData, run: scrub, rot: true},
		{name: "delete", victim: bigData, isDel: true, run: func(v *Vault) error { return v.DeleteContext(context.Background(), "victim") }},
	}
	setup := func(t *testing.T, c *cluster.Cluster, op matrixOp) *Vault {
		t.Helper()
		chunk := op.chunk
		if chunk == 0 {
			chunk = 256
		}
		v, err := NewVault(c, Erasure{K: 2, N: nodes}, WithChunkSize(chunk))
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Put(context.Background(), "keep", keepData); err != nil {
			t.Fatal(err)
		}
		if op.victim != nil {
			if err := v.Put(context.Background(), "victim", op.victim); err != nil {
				t.Fatal(err)
			}
		}
		if op.rot {
			// Same length, so a rolled-back repair leaves the victim's
			// byte count where a committed one puts it.
			key := cluster.ShardKey{Object: "victim", Index: 1, Chunk: 1}
			sh, err := c.GetCtx(context.Background(), 1, key)
			if err != nil {
				t.Fatal(err)
			}
			rotted := append([]byte(nil), sh.Data...)
			rotted[0] ^= 0xff
			overwrite(c, 1, key, rotted)
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
				if err := op.run(setup(t, mem, op)); err != nil {
					t.Fatal(err)
				}
				full := mem.ObjectBytes("victim")

				c, err := cluster.Open(nodes, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				v := setup(t, c, op)
				keepBytes := c.ObjectBytes("keep")
				preBytes := c.ObjectBytes("victim")

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
					// The victim is all-or-nothing: what it held before the
					// op (nothing, for a rolled-back put), or every chunk of
					// the committed write — never a fraction.
					if vb := c2.ObjectBytes("victim"); vb != preBytes && vb != full {
						t.Errorf("victim bytes = %d, want %d (pre-op) or %d (committed)", vb, preBytes, full)
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
						if err := c2.Delete(i, cluster.ShardKey{Object: "victim", Index: i, Chunk: ch}); err != nil {
							t.Fatalf("re-driven delete: %v", err)
						}
					}
				}
				if vb := c2.ObjectBytes("victim"); vb != 0 {
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
