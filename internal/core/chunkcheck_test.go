package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/tstamp"
)

// Every chunk is checked before it is written: a read decodes each chunk
// from exactly the decoder's minimum, hashes it into the object's running
// SHA-256 and compares the result with the midstate the writer recorded
// (the last chunk with the chain). These tests rot shards chunk by chunk
// on a four-chunk Erasure{K: 4, N: 8} object and assert only what does
// not depend on which probe lands first: node 0..3 of every stripe is
// always probed, and a rotted shard is discarded exactly once whether it
// arrived as a spare (vetted on arrival) or was taken unhashed (vetted
// when its chunk failed the check).

const checkedChunks = 4

// checkedVault is a traced vault with auditChunk-sized chunks, its
// cluster, registry and span exporter, holding one four-chunk object
// "obj" whose bytes it returns.
func checkedVault(t *testing.T) (*Vault, *cluster.Cluster, *obs.Registry, *trace.Mem, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	tr := trace.New(reg)
	tr.SetEnabled(true)
	mem := &trace.Mem{}
	tr.AddExporter(mem)
	v, err := NewVault(c, Erasure{K: 4, N: 8}, WithRegistry(reg), WithTracer(tr), WithChunkSize(auditChunk))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, (checkedChunks-1)*auditChunk+100)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	if got := len(v.lookup("obj").chunks); got != checkedChunks {
		t.Fatalf("object has %d chunks, want %d", got, checkedChunks)
	}
	return v, c, reg, mem, data
}

// rotShard flips the first byte of "obj"'s chunk ci shard on node, a
// byte every decode that consumes the shard returns.
func rotShard(t *testing.T, c *cluster.Cluster, ci, node int) {
	t.Helper()
	key := cluster.ShardKey{Object: "obj", Index: node, Chunk: ci}
	sh, err := c.GetCtx(context.Background(), node, key)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), sh.Data...)
	b[0] ^= 0xff
	overwrite(c, node, key, b)
}

// TestMidstatesRecordedForFullChunks: the writer keeps one 108-byte
// midstate per full chunk — at least the chunk size long, so every chunk
// but the last, and the last too when it is full — and none for a chunk
// shorter than that, so a one-chunk object below the chunk size keeps
// none.
func TestMidstatesRecordedForFullChunks(t *testing.T) {
	v, _, _, _, _ := checkedVault(t)
	for ci, cm := range v.lookup("obj").chunks {
		if last := ci == checkedChunks-1; (cm.mid() == nil) != last {
			t.Errorf("chunk %d: midstate recorded = %v, want %v", ci, cm.mid() != nil, !last)
		}
	}
	if err := v.Put(context.Background(), "small", []byte("one chunk")); err != nil {
		t.Fatal(err)
	}
	if cm := v.lookup("small").chunks; len(cm) != 1 || cm[0].mid() != nil {
		t.Fatalf("one-chunk object keeps a midstate")
	}
	if err := v.Put(context.Background(), "full", make([]byte, 2*auditChunk)); err != nil {
		t.Fatal(err)
	}
	for ci, cm := range v.lookup("full").chunks {
		if cm.mid() == nil {
			t.Errorf("object of two full chunks: chunk %d keeps no midstate", ci)
		}
	}
}

// TestHealthyReadDecodesFromMinimum: a healthy read decodes every chunk
// from exactly the minimum, never reports a mismatch, and discards
// nothing.
func TestHealthyReadDecodesFromMinimum(t *testing.T) {
	v, _, reg, mem, data := checkedVault(t)
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %v", err)
	}
	tc := lastTrace(t, mem, "vault.get")
	if n := tc.EventCount("read.mismatch"); n != 0 {
		t.Fatalf("healthy read reported %d mismatches:\n%s", n, trace.Timeline(tc))
	}
	decodes := 0
	for _, s := range tc.Spans {
		if s.Name != "vault.decode" {
			continue
		}
		decodes++
		if a, ok := s.Attr("shards"); !ok || a.Num != 4 {
			t.Errorf("vault.decode chunk span decoded from %v shards, want 4", a.Num)
		}
	}
	if decodes != checkedChunks {
		t.Fatalf("%d vault.decode spans, want %d", decodes, checkedChunks)
	}
	snap := reg.Snapshot()
	if d := snap.Sum("cluster.discard"); d != 0 || snap.Counters["vault.read.discarded"] != 0 {
		t.Fatalf("healthy read discarded %d shards", d)
	}
}

// TestReadRoutesAroundRotInEveryChunk: one rotted shard in any chunk is
// discarded once, attributed to its node, queued for scrub, and the read
// still returns the exact bytes.
func TestReadRoutesAroundRotInEveryChunk(t *testing.T) {
	for ci := 0; ci < checkedChunks; ci++ {
		t.Run(fmt.Sprintf("chunk%d", ci), func(t *testing.T) {
			v, c, reg, _, data := checkedVault(t)
			rotShard(t, c, ci, 1)
			got, err := v.Get(context.Background(), "obj")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get with a rotted shard in chunk %d: %v", ci, err)
			}
			if d := v.DirtyObjects(); len(d) != 1 || d[0] != "obj" {
				t.Fatalf("dirty queue = %v, want [obj]", d)
			}
			snap := reg.Snapshot()
			if n, sum := snap.Counters[`cluster.discard{node="01"}`], snap.Sum("cluster.discard"); n != 1 || sum != 1 {
				t.Fatalf("discards: node 01 = %d, all = %d; want 1 and 1", n, sum)
			}
		})
	}
}

// TestReadStopsBeforeUndecodableChunk: with n−min+1 shards of chunk ci
// rotted, ReadTo writes exactly the chunks before ci and fails degraded.
func TestReadStopsBeforeUndecodableChunk(t *testing.T) {
	for ci := 0; ci < checkedChunks; ci++ {
		t.Run(fmt.Sprintf("chunk%d", ci), func(t *testing.T) {
			v, c, _, _, data := checkedVault(t)
			for node := 0; node < 8-4+1; node++ {
				rotShard(t, c, ci, node)
			}
			var w bytes.Buffer
			n, err := v.ReadTo(context.Background(), "obj", &w)
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("read with chunk %d undecodable: %v, want ErrDegraded", ci, err)
			}
			if want := data[:ci*auditChunk]; n != int64(len(want)) || !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("read wrote %d bytes (n=%d), want exactly the %d bytes before chunk %d", w.Len(), n, len(want), ci)
			}
		})
	}
}

// TestScrubRepairKeepsMidstate: repairing one chunk of four decodes only
// that chunk, and the rewritten full chunk's metadata — midstate, span
// states and parity digests — equals the original write's, so the next
// read checks every chunk on the fast path.
func TestScrubRepairKeepsMidstate(t *testing.T) {
	v, c, reg, mem, data := checkedVault(t)
	orig := v.lookup("obj").chunks[1]
	rotShard(t, c, 1, 2)
	rep, err := v.Scrub(context.Background(), "obj")
	if err != nil || !rep.Repaired {
		t.Fatalf("scrub: %+v %v", rep, err)
	}
	if now := v.lookup("obj").chunks[1]; now.st == nil || !reflect.DeepEqual(now, orig) {
		t.Fatalf("repaired chunk's metadata differs from the original write's")
	}
	tc := lastTrace(t, mem, "vault.scrub")
	decodes := 0
	for _, s := range tc.Spans {
		if s.Name == "vault.decode" {
			decodes++
		}
	}
	if decodes != 1 {
		t.Fatalf("repair of one chunk recorded %d vault.decode spans, want 1:\n%s", decodes, trace.Timeline(tc))
	}
	before := reg.Snapshot().Sum("cluster.discard")
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after repair: %v", err)
	}
	if tc := lastTrace(t, mem, "vault.get"); tc.EventCount("read.mismatch") != 0 {
		t.Fatalf("read after repair fell back:\n%s", trace.Timeline(tc))
	}
	if d := reg.Snapshot().Sum("cluster.discard") - before; d != 0 {
		t.Fatalf("read after repair discarded %d shards", d)
	}
}

// TestRewriteRefusesBytesTheChainRejects: a rewrite under a kept chain
// (what a renewal does) of plaintext the chain does not vouch for aborts
// before its commit, so the cluster and the object are as they were.
func TestRewriteRefusesBytesTheChainRejects(t *testing.T) {
	v, c, _, _, data := checkedVault(t)
	stored := c.StoredBytes()
	other := append([]byte(nil), data...)
	other[len(other)/2] ^= 1
	obj := v.lookup("obj")
	obj.mu.Lock()
	err := v.write(context.Background(), &obj.layout, bytes.NewReader(other))
	obj.mu.Unlock()
	if !errors.Is(err, tstamp.ErrOpeningFailed) {
		t.Fatalf("rewrite with different bytes: %v, want ErrOpeningFailed", err)
	}
	if got := c.StoredBytes(); got != stored {
		t.Fatalf("refused rewrite left StoredBytes %d, want %d", got, stored)
	}
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("old bytes after refused rewrite: %v", err)
	}
}
