package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
)

// A full chunk's span shards — Erasure's data shards, Replication's
// replicas — are checked against the object's own hash states rather
// than a digest (chunkMeta.holds). These tests pin what a PUT hashes and
// that the span check finds every kind of rot a digest found. Like the
// chunk tests, they assert only what does not depend on which probe lands
// first: nodes 0..min−1 of every stripe are always probed, so a rotted
// shard there is discarded exactly once whether it was taken unhashed or
// vetted as a spare; a later node may not be probed at all.

// spanChunk is the span tests' chunk size: not a multiple of 10, so an
// Erasure{10,14} chunk's last data shard is padded (201-byte shards, the
// last holding 196 bytes and 5 of padding), and not of 64, so the state
// after a span holds a buffered tail that the chaining value does not
// cover.
const spanChunk = 2005

// spanVault is a vault of 14-node cluster under enc with spanChunk
// chunks, holding one object "obj" of two full chunks, whose bytes it
// returns.
func spanVault(t *testing.T, enc Encoding) (*Vault, *cluster.Cluster, *obs.Registry, []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	c := cluster.New(14, nil)
	c.UseRegistry(reg)
	v, err := NewVault(c, enc, WithRegistry(reg), WithChunkSize(spanChunk))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*spanChunk)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	return v, c, reg, data
}

// rotByte flips byte at of "obj"'s chunk ci shard on node; a negative at
// counts from the shard's end.
func rotByte(t *testing.T, c *cluster.Cluster, ci, node, at int) {
	t.Helper()
	key := cluster.ShardKey{Object: "obj", Index: node, Chunk: ci}
	sh, err := c.GetCtx(context.Background(), node, key)
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), sh.Data...)
	if at < 0 {
		at += len(b)
	}
	b[at] ^= 0x5a
	overwrite(c, node, key, b)
}

// TestSpanRotMatrix rots one shard of one chunk at a time — a data shard
// (node 1 of Erasure, node 0 of Replication), the last node a read
// probes (usually a spare), only the padding of the last data shard, and
// a parity shard no intact read fetches — at the last byte of its span,
// which lies in the buffered tail of the state after it. The read must
// return the exact bytes, discard only the rotted shard and at most once
// (exactly once below min), and scrub must report exactly that node,
// repair it to the metadata the write recorded, and leave a stripe that
// reads and scrubs clean.
func TestSpanRotMatrix(t *testing.T) {
	type rot struct {
		name     string
		node, at int
	}
	cases := []struct {
		enc  Encoding
		rots []rot
	}{
		{Erasure{K: 10, N: 14}, []rot{
			{"data", 1, -1},
			{"spare", 11, -1},
			{"padding", 9, -2}, // bytes 196..200 of 201 are padding
			{"parity", 13, -1},
		}},
		{Replication{N: 3}, []rot{
			{"data", 0, -1},
			{"spare", 2, -1},
		}},
	}
	for _, tc := range cases {
		_, min := tc.enc.Shards()
		for _, r := range tc.rots {
			for ci := 0; ci < 2; ci++ {
				t.Run(fmt.Sprintf("%s/%s/chunk%d", tc.enc.Name(), r.name, ci), func(t *testing.T) {
					v, c, reg, data := spanVault(t, tc.enc)
					orig := v.lookup("obj").chunks[ci]
					rotByte(t, c, ci, r.node, r.at)

					got, err := v.Get(context.Background(), "obj")
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("get: %v (bytes equal %v)", err, bytes.Equal(got, data))
					}
					snap := reg.Snapshot()
					n := snap.Counters[fmt.Sprintf(`cluster.discard{node="%02d"}`, r.node)]
					if sum := snap.Sum("cluster.discard"); sum != n {
						t.Fatalf("discards: %d in all, %d of them node %d's; another node was discarded", sum, n, r.node)
					}
					if n > 1 || (r.node < min && n != 1) {
						t.Fatalf("node %d discarded %d times, want once (or, beyond min %d, at most once)", r.node, n, min)
					}

					rep, err := v.Scrub(context.Background(), "obj")
					if err != nil || !rep.Repaired || !slices.Equal(rep.Corrupt, []int{r.node}) || len(rep.Missing) != 0 {
						t.Fatalf("scrub: %+v, %v; want node %d corrupt and repaired", rep, err, r.node)
					}
					if now := v.lookup("obj").chunks[ci]; !reflect.DeepEqual(now, orig) {
						t.Fatalf("repaired chunk %d's metadata differs from the write's", ci)
					}
					before := reg.Snapshot().Sum("cluster.discard")
					if got, err := v.Get(context.Background(), "obj"); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("get after repair: %v", err)
					}
					if d := reg.Snapshot().Sum("cluster.discard") - before; d != 0 {
						t.Fatalf("read after repair discarded %d shards", d)
					}
					if rep, err := v.Scrub(context.Background(), "obj"); err != nil || !rep.Clean() {
						t.Fatalf("second scrub: %+v, %v", rep, err)
					}
				})
			}
		}
	}
}

// hashedPerByte is what a PUT of l, whose shards are shardLen bytes
// long, hashed per plaintext byte: the plaintext once, plus every shard
// checked by digest.
func hashedPerByte(l *layout, shardLen int) float64 {
	hashed := l.plainLen
	for _, cm := range l.chunks {
		for i := range cm.digests {
			if cm.st.span(i) == nil {
				hashed += shardLen
			}
		}
	}
	return float64(hashed) / float64(l.plainLen)
}

// TestWhatAPutHashes is the structural gate on the write: a full chunk's
// span shards get no digest, so a 4 MiB Erasure{10,14} put hashes 1.4
// bytes per user byte (the plaintext and the parity) and a full
// Replication{3} chunk 1.0, while a 16 KiB object keeps today's shape —
// 14 digests and no hash state.
func TestWhatAPutHashes(t *testing.T) {
	ctx := context.Background()
	rsVault, err := NewVault(cluster.New(14, nil), Erasure{K: 10, N: 14})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 4<<20)
	rand.Read(big)
	if err := rsVault.Put(ctx, "big", big); err != nil {
		t.Fatal(err)
	}
	l := &rsVault.lookup("big").layout
	if len(l.chunks) != 4 {
		t.Fatalf("4 MiB object has %d chunks, want 4", len(l.chunks))
	}
	shardLen := (DefaultChunkSize + 9) / 10
	for ci, cm := range l.chunks {
		if cm.mid() == nil {
			t.Fatalf("full chunk %d keeps no midstate", ci)
		}
		for i, d := range cm.digests {
			span, parity := cm.st.span(i) != nil, i >= 10
			if span == parity || (d != [32]byte{}) != parity {
				t.Fatalf("chunk %d shard %d: span %v, digest %v; want a digest for parity only", ci, i, span, d != [32]byte{})
			}
		}
		if s := cm.st.span(9); s.n+s.pad != shardLen || s.pad != 10*shardLen-DefaultChunkSize {
			t.Fatalf("chunk %d: last data shard spans %d bytes and %d of padding", ci, s.n, s.pad)
		}
	}
	perByte := hashedPerByte(l, shardLen)
	t.Logf("4 MiB Erasure{10,14} put: %.3f bytes hashed per user byte", perByte)
	if perByte > 1.41 {
		t.Fatalf("4 MiB Erasure{10,14} put hashes %.3f bytes per user byte, want 1.4", perByte)
	}

	if err := rsVault.Put(ctx, "small", big[:16<<10]); err != nil {
		t.Fatal(err)
	}
	if cms := rsVault.lookup("small").chunks; len(cms) != 1 || cms[0].st != nil || len(cms[0].digests) != 14 ||
		slices.Contains(cms[0].digests, [32]byte{}) {
		t.Fatalf("16 KiB object: want one chunk with 14 digests and no hash state")
	}

	repVault, err := NewVault(cluster.New(3, nil), Replication{N: 3}, WithChunkSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := repVault.Put(ctx, "rep", big[:3*64<<10]); err != nil {
		t.Fatal(err)
	}
	rl := &repVault.lookup("rep").layout
	for ci, cm := range rl.chunks {
		for i, d := range cm.digests {
			if cm.st.span(i) == nil || d != [32]byte{} {
				t.Fatalf("Replication chunk %d replica %d: checked by digest, want by span", ci, i)
			}
		}
	}
	if perByte := hashedPerByte(rl, 64<<10); perByte != 1 {
		t.Fatalf("full Replication{3} chunks hash %.3f bytes per user byte, want 1.0", perByte)
	}
}
