package core

// Native fuzz targets for the two attacker-facing byte surfaces: the
// LRSS wire share parser (bytes come straight off storage nodes) and
// shard combination (mutated shards fed to the RS / Shamir / packed
// decoders). Seed corpora live in testdata/fuzz/<Target>/; the verify
// recipe runs each target briefly (-fuzztime 10s) on top of the seeds,
// which `go test` always replays.

import (
	"bytes"
	"crypto/rand"
	"testing"

	"securearchive/internal/lrss"
)

// fuzzShare builds a small but fully populated LRSS share for seeding.
func fuzzShare() lrss.Share {
	data := []byte("fuzz seed secret material.")
	shares, err := lrss.Split(data, lrss.Params{N: 4, T: 2, SourceLen: 16}, rand.Reader)
	if err != nil {
		panic(err)
	}
	return shares[1]
}

// FuzzWireDecode hammers decodeLRSSShare: arbitrary bytes must either
// parse or fail with an error — never panic, never allocate unboundedly
// (the count field is attacker-controlled) — and anything that parses
// must survive an encode/decode round trip unchanged.
func FuzzWireDecode(f *testing.F) {
	valid := encodeLRSSShare(fuzzShare())
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// A count field claiming 2^31 seed shares with an empty body.
	f.Add([]byte{0, 0, 0, 1, 2, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeLRSSShare(data)
		if err != nil {
			return
		}
		buf := encodeLRSSShare(s)
		s2, err := decodeLRSSShare(buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded share failed: %v", err)
		}
		if s2.Index != s.Index || s2.T != s.T || s2.SecretLen != s.SecretLen ||
			!bytes.Equal(s2.Source, s.Source) || !bytes.Equal(s2.Masked, s.Masked) ||
			len(s2.SeedShares) != len(s.SeedShares) {
			t.Fatalf("share round trip not stable")
		}
		for i := range s.SeedShares {
			if s2.SeedShares[i].X != s.SeedShares[i].X ||
				s2.SeedShares[i].Threshold != s.SeedShares[i].Threshold ||
				!bytes.Equal(s2.SeedShares[i].Payload, s.SeedShares[i].Payload) {
				t.Fatalf("seed share %d round trip not stable", i)
			}
		}
	})
}

// FuzzShardCombine feeds a mutated shard into the RS, Shamir and packed
// combiners. The invariants mirror the vault's read path: the digest
// check must flag every mutation (that is the oracle that stops
// silently-wrong plaintext), decoding the surviving shards must
// reconstruct the original exactly, and decoding with the rotted shard
// still present must never panic — garbage or an error are both
// acceptable there, because the digest layer has already disqualified
// that shard.
func FuzzShardCombine(f *testing.F) {
	f.Add([]byte("fuzz shard combine seed"), uint8(0), uint8(1), uint16(0))
	f.Add([]byte("another seed, longer, to cross shard boundaries....."), uint8(3), uint8(0xFF), uint16(31))
	f.Add([]byte{1}, uint8(7), uint8(0x80), uint16(9999))
	f.Fuzz(func(t *testing.T, payload []byte, which, xor uint8, pos uint16) {
		if len(payload) == 0 || len(payload) > 4<<10 {
			return
		}
		encs := []Encoding{
			Erasure{K: 2, N: 4},
			SecretSharing{T: 2, N: 4},
			PackedSharing{T: 2, K: 2, N: 5},
		}
		for _, enc := range encs {
			e, err := enc.Encode(payload, rand.Reader)
			if err != nil {
				t.Fatalf("%s encode: %v", enc.Name(), err)
			}
			digests := ShardDigests(e.Shards)
			n, min := enc.Shards()
			m := int(which) % n
			if len(e.Shards[m]) == 0 {
				continue
			}
			mutated := append([][]byte(nil), e.Shards...)
			mutated[m] = append([]byte(nil), e.Shards[m]...)
			mutated[m][int(pos)%len(mutated[m])] ^= xor | 1 // never a no-op flip

			// Combining with the rotted shard present must not panic;
			// whatever it returns is untrusted until the digests speak.
			_, _ = enc.Decode(&Encoded{
				PlainLen: e.PlainLen, Shards: mutated,
				ClientSecret: e.ClientSecret, PublicMeta: e.PublicMeta,
			})

			// The digest oracle must catch exactly the mutated shard...
			_, missing, corrupt := CheckShards(mutated, digests)
			if len(missing) != 0 || len(corrupt) != 1 || corrupt[0] != m {
				t.Fatalf("%s: digests missed the mutation: missing=%v corrupt=%v want [%d]",
					enc.Name(), missing, corrupt, m)
			}
			// ...and the surviving shards must reconstruct exactly.
			mutated[m] = nil
			if n-1 < min {
				continue
			}
			got, err := enc.Decode(&Encoded{
				PlainLen: e.PlainLen, Shards: mutated,
				ClientSecret: e.ClientSecret, PublicMeta: e.PublicMeta,
			})
			if err != nil {
				t.Fatalf("%s: decode after discarding rotted shard: %v", enc.Name(), err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s: reconstruction mismatch after discard", enc.Name())
			}
		}
	})
}
