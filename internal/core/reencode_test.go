package core

// Each object records the encoding that wrote it, and reads and scrubs
// use that one, not the vault's current Encoding. RenewShares writes
// under the current Encoding, so after Encoding changes it is the
// re-encode. These tests drive vaults whose Encoding changes between
// operations.

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"strings"
	"testing"

	"securearchive/internal/cluster"
)

// reencodeRoster is one encoding per Figure 1 point, at widths from 5 to
// 8 nodes, so some re-encodes narrow the stripe and some widen it.
func reencodeRoster() []Encoding {
	return []Encoding{
		Replication{N: 5},
		Erasure{K: 4, N: 6},
		TraditionalEncryption{K: 3, N: 7},
		CascadeEncryption{K: 4, N: 8},
		AONTRS{K: 3, N: 5},
		EntropicEncryption{K: 4, N: 6, AssumedEntropyBits: 1 << 16},
		SecretSharing{T: 4, N: 8},
		PackedSharing{T: 3, K: 2, N: 7},
		LRSS{T: 3, N: 6},
	}
}

// label names an encoding and its geometry for a subtest.
func label(enc Encoding) string {
	n, min := enc.Shards()
	return fmt.Sprintf("%s(%d-of-%d)", strings.ReplaceAll(enc.Name(), " ", ""), min, n)
}

const (
	reencodeChunk = 1024
	reencodeLen   = 2*reencodeChunk + 300 // three chunk stripes
)

// checkRecorded requires id to read back as want through Get and ReadTo
// and to report enc as its encoding.
func checkRecorded(t *testing.T, v *Vault, id string, enc Encoding, want []byte) {
	t.Helper()
	got, streamed, err := readBoth(v, id)
	if err != nil || !bytes.Equal(got, want) || !bytes.Equal(streamed.Bytes(), want) {
		t.Fatalf("%s (%s): read: %v", id, label(enc), err)
	}
	info, err := v.Stat(id)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := enc.Shards(); info.Scheme != enc.Name() || info.Width != n {
		t.Fatalf("%s: Stat says %s width %d, want %s width %d", id, info.Scheme, info.Width, enc.Name(), n)
	}
}

// TestMixedEncodingVault: one vault holds an object under each of the
// nine encodings, Encoding changed before every Put. Every object reads
// back under the encoding that wrote it, with and without the read
// cache, and a scrub repairs a rotted shard of each under that same
// encoding, although the vault's Encoding is by then another one.
func TestMixedEncodingVault(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			var opts []VaultOption
			if cached {
				opts = append(opts, WithReadCache(1<<20))
			}
			roster := reencodeRoster()
			v, c := chunkedTestVault(t, roster[0], reencodeChunk, opts...)
			data := make([][]byte, len(roster))
			for i, enc := range roster {
				data[i] = make([]byte, reencodeLen)
				rand.Read(data[i])
				v.Encoding = enc
				if err := v.Put(context.Background(), fmt.Sprint("obj-", i), data[i]); err != nil {
					t.Fatalf("put under %s: %v", label(enc), err)
				}
			}
			v.Encoding = Erasure{K: 2, N: 3} // none of the objects' encodings
			for i, enc := range roster {
				id := fmt.Sprint("obj-", i)
				checkRecorded(t, v, id, enc, data[i])
				checkRecorded(t, v, id, enc, data[i]) // a cache hit, when cached
				before := c.ObjectBytes(id)
				overwrite(c, 1, cluster.ShardKey{Object: id, Index: 1, Chunk: 1}, []byte("rot"))
				rep, err := v.Scrub(context.Background(), id)
				if err != nil || !rep.Repaired {
					t.Fatalf("scrub %s: repaired=%v err=%v", label(enc), rep != nil && rep.Repaired, err)
				}
				if after := c.ObjectBytes(id); after != before {
					t.Fatalf("scrub of %s left %d bytes, want %d: repaired under another encoding", label(enc), after, before)
				}
				checkRecorded(t, v, id, enc, data[i])
			}
		})
	}
}

// TestReencodeEveryPair re-encodes a three-chunk object for each of the
// 81 ordered pairs of encodings: RenewShares after Encoding changes. The
// object must round-trip, report the target encoding, occupy exactly
// what a fresh write under the target does (a narrower stripe's dropped
// shard indexes are deleted), and keep its integrity chain: same length,
// still exportable. It logs the bytes the re-encode moved per user byte
// and requires at least a read of the source's minimum shards plus a
// full write of the target's footprint.
func TestReencodeEveryPair(t *testing.T) {
	roster := reencodeRoster()
	data := make([]byte, reencodeLen)
	rand.Read(data)
	for _, from := range roster {
		for _, to := range roster {
			t.Run(label(from)+"_to_"+label(to), func(t *testing.T) {
				v, c := chunkedTestVault(t, from, reencodeChunk)
				if err := v.Put(context.Background(), "obj", data); err != nil {
					t.Fatal(err)
				}
				links := v.Chain("obj").Len()
				n, min := from.Shards()
				readFloor := c.ObjectBytes("obj") * int64(min) / int64(n)

				v.Encoding = to
				moved := c.TotalBytesMoved()
				if err := v.RenewShares(context.Background(), "obj"); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
				moved = c.TotalBytesMoved() - moved
				checkRecorded(t, v, "obj", to, data)

				fresh, fc := chunkedTestVault(t, to, reencodeChunk)
				if err := fresh.Put(context.Background(), "obj", data); err != nil {
					t.Fatal(err)
				}
				if got, want := c.StoredBytes(), fc.StoredBytes(); got != want {
					t.Fatalf("StoredBytes after re-encode = %d, a fresh write stores %d", got, want)
				}
				if got := v.Chain("obj").Len(); got != links {
					t.Fatalf("chain has %d links after re-encode, want %d", got, links)
				}
				if _, err := v.ExportEvidence("obj"); err != nil {
					t.Fatalf("export evidence after re-encode: %v", err)
				}
				if floor := readFloor + fc.StoredBytes(); moved < floor {
					t.Fatalf("re-encode moved %d bytes, below the %d a read plus a rewrite must move", moved, floor)
				}
				t.Logf("%s -> %s: %.1f B moved per user byte", label(from), label(to), float64(moved)/float64(len(data)))
			})
		}
	}
}
