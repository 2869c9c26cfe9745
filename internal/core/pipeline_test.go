package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"securearchive/internal/cluster"
)

// chunkedTestVault builds a vault with a deliberately tiny chunk size so
// unit-sized objects exercise the multi-chunk pipeline cheaply.
func chunkedTestVault(t *testing.T, enc Encoding, chunkSize int, opts ...VaultOption) (*Vault, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(8, nil)
	v, err := NewVault(c, enc, append([]VaultOption{WithChunkSize(chunkSize)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return v, c
}

// numChunks is how many chunk stripes the writer cuts dataLen bytes
// into: dataLen/chunkSize full chunks, plus one more only when the
// remainder clears the tail floor (the last chunk absorbs the rest).
func numChunks(dataLen, chunkSize int) int {
	chunks := dataLen / chunkSize
	if chunks == 0 || dataLen%chunkSize >= chunkTailFloor {
		chunks++
	}
	return chunks
}

// TestChunkedMatchesMonolithic is the writer's differential property:
// for every encoding, a vault cutting objects into several chunks and a
// vault whose chunk holds the whole object must both round-trip the
// exact same bytes at the chunk-boundary sizes (chunk−1, chunk, chunk+1,
// multi-chunk).
func TestChunkedMatchesMonolithic(t *testing.T) {
	const chunk = 2048
	sizes := []int{chunk - 1, chunk, chunk + 1, 3*chunk + 17}
	for _, enc := range Figure1Encodings(cfgSmall()) {
		enc := enc
		t.Run(enc.Name(), func(t *testing.T) {
			t.Parallel()
			chunked, cc := chunkedTestVault(t, enc, chunk)
			mono, _ := chunkedTestVault(t, enc, 4*chunk) // one chunk per object
			for _, size := range sizes {
				data := make([]byte, size)
				rand.Read(data)
				id := fmt.Sprintf("obj-%d", size)
				if err := chunked.Put(context.Background(), id, data); err != nil {
					t.Fatalf("chunked put %d bytes: %v", size, err)
				}
				if err := mono.Put(context.Background(), id, data); err != nil {
					t.Fatalf("one-chunk put %d bytes: %v", size, err)
				}
				got, err := chunked.Get(context.Background(), id)
				if err != nil {
					t.Fatalf("chunked get %d bytes: %v", size, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("chunked round trip mismatch at %d bytes", size)
				}
				mgot, err := mono.Get(context.Background(), id)
				if err != nil {
					t.Fatalf("one-chunk get %d bytes: %v", size, err)
				}
				if !bytes.Equal(mgot, data) {
					t.Fatalf("one-chunk round trip mismatch at %d bytes", size)
				}
				// Sizes that split into several chunks must actually have
				// taken the chunked path: chunk 1's stripe exists on the
				// cluster. (chunk+1 folds its 1-byte tail into chunk 0 and
				// stays a single stripe by design.)
				if size > chunk && numChunks(size, chunk) > 1 {
					if _, err := cc.GetCtx(context.Background(), 0, cluster.ShardKey{Object: id, Index: 0, Chunk: 1}); err != nil {
						t.Fatalf("size %d left no chunk-1 shard: %v", size, err)
					}
				}
			}
			if StagedCount := cc.StagedCount(); StagedCount != 0 {
				t.Fatalf("%d shards left in staging", StagedCount)
			}
		})
	}
}

// TestChunkedPutAbortsAtomically kills a node mid-write: the multi-chunk
// put must fail as a unit — no committed shards, no staged leftovers, no
// registry entry.
func TestChunkedPutAbortsAtomically(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	c.SetOnline(7, false)
	data := make([]byte, 3*2048+5)
	rand.Read(data)
	if err := v.Put(context.Background(), "doomed", data); err == nil {
		t.Fatal("put succeeded with a required node down")
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("aborted put left %d committed bytes", got)
	}
	if got := c.StagedCount(); got != 0 {
		t.Fatalf("aborted put left %d staged shards", got)
	}
	if _, err := v.Get(context.Background(), "doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted put left a registry entry: %v", err)
	}
	// The id is reusable once the node returns.
	c.SetOnline(7, true)
	if err := v.Put(context.Background(), "doomed", data); err != nil {
		t.Fatalf("re-put after abort: %v", err)
	}
	got, err := v.Get(context.Background(), "doomed")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after recovery: %v", err)
	}
}

// TestChunkedDegradedRead drops nodes down to the decode minimum: every
// chunk's k-of-n read must route around the losses.
func TestChunkedDegradedRead(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	data := make([]byte, 5*2048+333)
	rand.Read(data)
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 6, 7} { // 4 of 8 down, k=4 remain
		c.SetOnline(n, false)
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch under failures")
	}
	// One more loss starves some chunk below k: typed degraded error.
	c.SetOnline(0, false)
	if _, err := v.Get(context.Background(), "r"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("starved read: got %v, want ErrDegraded", err)
	}
}

// TestChunkedScrubRepairs rots shards in two different chunks, scrubs,
// and expects a repaired stripe plus an intact round trip.
func TestChunkedScrubRepairs(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	data := make([]byte, 4*2048)
	rand.Read(data)
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	// Rot chunk 0 on node 2 and chunk 3 on node 5.
	overwrite(c, 2, cluster.ShardKey{Object: "r", Index: 2, Chunk: 0}, []byte("rotrotrot"))
	overwrite(c, 5, cluster.ShardKey{Object: "r", Index: 5, Chunk: 3}, []byte("bitflip"))
	rep, err := v.Scrub(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired {
		t.Fatal("damage not repaired")
	}
	if len(rep.Corrupt) != 2 {
		t.Fatalf("corrupt nodes %v, want [2 5]", rep.Corrupt)
	}
	rep2, err := v.Scrub(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatalf("second scrub still dirty: missing=%v corrupt=%v", rep2.Missing, rep2.Corrupt)
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip after repair: %v", err)
	}
}

// TestChunkedRenewShares rewrites every chunk's stripe with fresh
// randomness and must preserve the data.
func TestChunkedRenewShares(t *testing.T) {
	v, c := chunkedTestVault(t, SecretSharing{T: 4, N: 8}, 2048)
	data := make([]byte, 2*2048+100)
	rand.Read(data)
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	before, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "r", Index: 0, Chunk: 1})
	if err := v.RenewShares(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "r", Index: 0, Chunk: 1})
	if bytes.Equal(before.Data, after.Data) {
		t.Fatal("chunk shard unchanged after renewal")
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost in renewal: %v", err)
	}
}

// TestChunkedDelete removes every chunk's shards, not just chunk 0.
func TestChunkedDelete(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	data := make([]byte, 3*2048)
	rand.Read(data)
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	if c.StoredBytes() == 0 {
		t.Fatal("nothing stored")
	}
	if err := v.DeleteContext(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("delete left %d bytes on nodes", got)
	}
	if _, err := v.Get(context.Background(), "r"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still readable: %v", err)
	}
}
