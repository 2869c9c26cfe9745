package core

// An object's chain mode follows its encoding's at-rest class: a hash
// chain where the nodes hold the bytes in the clear, a commitment chain
// wherever the encoding hides them, and a re-encode from the first to the
// second upgrades the chain before it commits.

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"runtime/debug"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/sec"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// wantMode is the rule, stated apart from chainMode.
func wantMode(enc Encoding) tstamp.RefMode {
	if enc.Class() == sec.None {
		return tstamp.RefHash
	}
	return tstamp.RefCommitment
}

// TestChainModeFollowsEncoding: over the nine Figure 1 encodings, a Put
// opens a hash chain exactly for class none, and a hash chain's one
// reference is the plaintext's digest.
func TestChainModeFollowsEncoding(t *testing.T) {
	data := make([]byte, 3000)
	rand.Read(data)
	digest := sha256.Sum256(data)
	hashed := 0
	for _, enc := range Figure1Encodings(cfgSmall()) {
		v, _ := chunkedTestVault(t, enc, 1024)
		if err := v.Put(context.Background(), "obj", data); err != nil {
			t.Fatalf("%s: %v", label(enc), err)
		}
		chain := v.Chain("obj")
		if chain.Mode != wantMode(enc) || chain.Links[0].Mode != chain.Mode {
			t.Fatalf("%s (class %v): chain mode %d, link mode %d, want %d", label(enc), enc.Class(), chain.Mode, chain.Links[0].Mode, wantMode(enc))
		}
		if isHash := bytes.Equal(chain.Links[0].Ref, digest[:]); isHash != (chain.Mode == tstamp.RefHash) {
			t.Fatalf("%s: chain mode %d, but its reference is the digest: %v", label(enc), chain.Mode, isHash)
		}
		if chain.Mode == tstamp.RefHash {
			hashed++
		}
	}
	if hashed != 2 {
		t.Fatalf("%d of nine encodings got a hash chain, want 2 (Replication, Erasure)", hashed)
	}
}

// leaks reports where digest shows up in b: raw, hex or base64, the
// forms a JSON export could carry it in.
func leaks(b []byte, digest [sha256.Size]byte) string {
	for form, enc := range map[string]string{
		"raw":    string(digest[:]),
		"hex":    hex.EncodeToString(digest[:]),
		"base64": base64.StdEncoding.EncodeToString(digest[:]),
		"b64url": base64.RawURLEncoding.EncodeToString(digest[:]),
	} {
		if bytes.Contains(b, []byte(enc)) {
			return form
		}
	}
	return ""
}

// TestUpgradeHidesTheDigest: an object written under a class-none
// encoding, renewed once, then re-encoded to each ITS encoding, ends with
// a commitment chain in which no public link, no Marshal output and no
// ExportEvidence output holds the SHA-256 of its plaintext (recomputed
// here). The hash chain it had is the new chain's owner-held Prior, the
// upgrade link is signed with that chain's head scheme, and the whole
// chain, Prior included, verifies.
func TestUpgradeHidesTheDigest(t *testing.T) {
	data := make([]byte, reencodeLen)
	rand.Read(data)
	digest := sha256.Sum256(data)
	for _, from := range []Encoding{Replication{N: 5}, Erasure{K: 4, N: 6}} {
		for _, to := range reencodeRoster() {
			if to.Class() != sec.IT {
				continue
			}
			t.Run(label(from)+"_to_"+label(to), func(t *testing.T) {
				v, _ := chunkedTestVault(t, from, reencodeChunk)
				if err := v.Put(context.Background(), "obj", data); err != nil {
					t.Fatal(err)
				}
				if err := v.RenewIntegrity(context.Background(), "obj", sig.ECDSAP256); err != nil {
					t.Fatal(err)
				}
				old := v.Chain("obj")
				if old.Mode != tstamp.RefHash || !bytes.Equal(old.Links[0].Ref, digest[:]) {
					t.Fatal("premise: the class-none object's chain publishes its digest")
				}
				v.Encoding = to
				if err := v.RenewShares(context.Background(), "obj"); err != nil {
					t.Fatal(err)
				}
				checkRecorded(t, v, "obj", to, data)
				chain := v.Chain("obj")
				if chain.Mode != tstamp.RefCommitment || chain.Prior != old || chain.Len() != 1 {
					t.Fatalf("after the re-encode: mode %d, %d links, prior kept %v; want a fresh commitment chain over the old one",
						chain.Mode, chain.Len(), chain.Prior == old)
				}
				if got := chain.Links[0].Scheme; got != sig.ECDSAP256 {
					t.Fatalf("upgrade link signed with %s, want the prior head's %s", got, sig.ECDSAP256)
				}
				for k, l := range chain.Links {
					if form := leaks(append(l.Ref, l.PrevHash[:]...), digest); form != "" {
						t.Fatalf("public link %d holds the plaintext digest (%s)", k, form)
					}
				}
				blob, err := chain.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				evidence, err := v.ExportEvidence("obj")
				if err != nil {
					t.Fatal(err)
				}
				for name, b := range map[string][]byte{"Marshal": blob, "ExportEvidence": evidence} {
					if form := leaks(b, digest); form != "" {
						t.Fatalf("%s output holds the plaintext digest (%s)", name, form)
					}
				}
				rt, err := tstamp.Unmarshal(evidence)
				if err != nil || rt.Prior != nil {
					t.Fatalf("exported evidence: %v (prior attached %v)", err, rt != nil && rt.Prior != nil)
				}
				if err := rt.Verify(v.Cluster.Epoch()+1, nil); err != nil {
					t.Fatalf("exported evidence does not verify: %v", err)
				}
				if err := chain.Verify(v.Cluster.Epoch()+1, nil); err != nil {
					t.Fatalf("upgraded chain with its prior does not verify: %v", err)
				}
			})
		}
	}
}

// TestUpgradeFailureAborts: when the upgrade cannot be built, the
// re-encode rolls back like any failed rewrite — the object keeps its
// encoding, its hash chain and its bytes, and the cluster stores what it
// stored before.
func TestUpgradeFailureAborts(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 6}, reencodeChunk)
	data := make([]byte, reencodeLen)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	old, before := v.Chain("obj"), c.StoredBytes()
	// A prior head later than the cluster's epoch: the upgrade link
	// would break the chain's epoch order.
	if err := old.Renew(sig.Ed25519, v.Cluster.Epoch()+5, rand.Reader); err != nil {
		t.Fatal(err)
	}
	v.Encoding = SecretSharing{T: 4, N: 8}
	if err := v.RenewShares(context.Background(), "obj"); err == nil {
		t.Fatal("re-encode committed over a failed upgrade")
	}
	if v.Chain("obj") != old || c.StoredBytes() != before {
		t.Fatalf("failed upgrade changed the object: chain kept %v, stored %d → %d", v.Chain("obj") == old, before, c.StoredBytes())
	}
	checkRecorded(t, v, "obj", Erasure{K: 4, N: 6}, data)
}

// TestPutAllocsFollowTheMode is the write path's cost gate, stated in
// allocations so it holds on one core with no clock. Opening a
// commitment exponentiates in the group, and group.Default()'s 2048-bit
// modulus makes that ~2 KB of big.Int scratch more per Put than a 256-bit
// one built here. An Erasure Put, which opens a hash chain, allocates
// within a small margin of the same on both groups, because no
// exponentiation runs; a SecretSharing Put, which opens a commitment
// chain, goes past that margin.
func TestPutAllocsFollowTheMode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// What the write path draws from sync.Pools depends on scheduling, so
	// the two groups may differ by a few allocations and some hundreds of
	// bytes without any exponentiation. A collection empties the pools,
	// so none runs while the test counts.
	const marginAllocs, marginBytes = 4, 512
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	data := make([]byte, 16<<10)
	rand.Read(data)
	// small is a 256-bit safe-prime group, p = 2q+1, with g = 4 and h = 9:
	// quadratic residues, so both of order q.
	p, _ := new(big.Int).SetString("800000000000000000000000000000000000000000000000000000000002FF7F", 16)
	small := &group.Group{P: p, Q: new(big.Int).Rsh(p, 1), G: big.NewInt(4), H: big.NewInt(9)}
	// putAllocs is what one Put (and the Delete that keeps the store
	// flat) allocates, in objects and bytes, once tables and series are
	// warm: the least over three rounds, because a one-off growth
	// elsewhere in the process only adds.
	putAllocs := func(enc Encoding, grp *group.Group) (objects, size int64) {
		v, err := NewVault(cluster.New(14, nil), enc)
		if err != nil {
			t.Fatal(err)
		}
		v.Group = grp
		const puts = 20
		objects, size = math.MaxInt64, math.MaxInt64
		for round := 0; round < 4; round++ { // the first round warms up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < puts; i++ {
				id := fmt.Sprintf("o%03d", i)
				if err := v.Put(context.Background(), id, data); err != nil {
					t.Fatal(err)
				}
				if err := v.DeleteContext(context.Background(), id); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if round > 0 {
				objects = min(objects, int64(after.Mallocs-before.Mallocs)/puts)
				size = min(size, int64(after.TotalAlloc-before.TotalAlloc)/puts)
			}
		}
		return objects, size
	}
	for _, tc := range []struct {
		enc    Encoding
		within bool
	}{{Erasure{K: 10, N: 14}, true}, {SecretSharing{T: 4, N: 14}, false}} {
		dm, db := putAllocs(tc.enc, group.Default())
		tm, tb := putAllocs(tc.enc, small)
		t.Logf("%s Put: %d allocs, %d B on group.Default(); %d allocs, %d B on a 256-bit group", tc.enc.Name(), dm, db, tm, tb)
		within := max(dm-tm, tm-dm) <= marginAllocs && max(db-tb, tb-db) <= marginBytes
		if within != tc.within {
			t.Fatalf("%s Put: group.Default() minus the 256-bit group is %+d allocs, %+d B; within %d allocs and %d B: %v, want %v",
				tc.enc.Name(), dm-tm, db-tb, marginAllocs, marginBytes, within, tc.within)
		}
	}
}
