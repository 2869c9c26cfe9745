package core

// Renewal never reassembles the whole object: it streams the reader's checked
// chunks into the writer. This test pins that a failure partway through
// the stream leaves the object as it was.

import (
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"securearchive/internal/cluster"
)

// TestStreamedRenewalReadFailure: a renewal whose read fails at
// chunk 2 of 4 — after chunk 1 has streamed into the writer — returns the
// read's error, leaves no stage and StoredBytes at its baseline, and
// changes nothing of the object: once the chunk's shards are back, the
// old bytes read.
func TestStreamedRenewalReadFailure(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, c := chunkedTestVault(t, enc, reencodeChunk)
	data := make([]byte, 4*reencodeChunk)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	// Take away n−k+1 shards of chunk 2 (index 1): it cannot decode.
	var saved []cluster.Shard
	for i := 0; i < 5; i++ {
		key := cluster.ShardKey{Object: "obj", Index: i, Chunk: 1}
		sh, err := c.GetCtx(context.Background(), i, key)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, sh)
		if err := c.Delete(i, key); err != nil {
			t.Fatal(err)
		}
	}
	baseline := c.StoredBytes()
	v.Encoding = SecretSharing{T: 4, N: 8} // a re-encode: the decode path
	err := v.RenewShares(context.Background(), "obj")
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("renewal over an undecodable chunk: %v, want a *DegradedError", err)
	}
	if got := c.StoredBytes(); got != baseline {
		t.Fatalf("StoredBytes = %d after the failed renewal, want baseline %d", got, baseline)
	}
	if n := c.StagedCount(); n != 0 {
		t.Fatalf("%d staged shards left by the failed renewal", n)
	}
	for _, sh := range saved {
		overwrite(c, sh.Key.Index, sh.Key, sh.Data)
	}
	checkRecorded(t, v, "obj", enc, data)
}
