package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// overwrite replaces the live shard at key on node with data — bit rot
// or a tampering provider — by staging and committing it under a token
// of its own.
func overwrite(c *cluster.Cluster, node int, key cluster.ShardKey, data []byte) {
	stage := fmt.Sprintf("tamper:%d:%v", node, key)
	if c.PutStagedCtx(context.Background(), node, stage, key, data) == nil {
		c.CommitStage(stage)
	}
}

func testVault(t *testing.T, enc Encoding) (*Vault, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(8, nil)
	v, err := NewVault(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	return v, c
}

func TestVaultPutGet(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	data := []byte("a record in the vault")
	if err := v.Put(context.Background(), "rec1", data); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get(context.Background(), "rec1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
	if len(v.Objects()) != 1 {
		t.Fatal("object listing wrong")
	}
}

func TestVaultDuplicateAndMissing(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	if err := v.Put(context.Background(), "x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := v.Put(context.Background(), "x", []byte("2")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate put: %v", err)
	}
	if _, err := v.Get(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing get: %v", err)
	}
}

func TestVaultSurvivesNodeFailures(t *testing.T) {
	v, c := testVault(t, SecretSharing{T: 4, N: 8})
	data := []byte("resilient record")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 5, 7} { // 4 of 8 down, t=4 remain
		c.SetOnline(n, false)
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch under failures")
	}
}

func TestVaultIntegrityChainRejectsTamperedCluster(t *testing.T) {
	// Replication has no inherent integrity: the chain must catch node
	// tampering when every replica is modified identically.
	v, c := testVault(t, Replication{N: 8})
	data := []byte("tamper-evident")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	evil := []byte("tampered!!!!!!")
	for i := 0; i < 8; i++ {
		overwrite(c, i, cluster.ShardKey{Object: "r", Index: i}, evil)
	}
	if _, err := v.Get(context.Background(), "r"); err == nil {
		t.Fatal("tampered replicas accepted")
	}
}

// TestReplicasShareTheChunk: Replication's replicas are the chunk the
// writer encoded, not copies of it. Bit rot on one node's replica leaves
// every other node's bytes intact (the mem store's Corrupt copies before
// it flips), a read still returns the object, and Decode hands out a copy
// of its own.
func TestReplicasShareTheChunk(t *testing.T) {
	rec := &chunkRecorder{Encoding: Replication{N: 4}}
	v, c := chunkedTestVault(t, rec, 4096)
	data := iotaBytes(3000)
	if _, err := v.PutReader(context.Background(), "obj", &iotaReader{n: len(data)}); err != nil {
		t.Fatal(err)
	}
	chunk := rec.chunks[0]
	key := cluster.ShardKey{Object: "obj"}
	replica := func(i int) []byte {
		key := key
		key.Index = i
		sh, err := c.GetCtx(context.Background(), i, key)
		if err != nil {
			t.Fatal(err)
		}
		return sh.Data
	}
	for i := 0; i < 4; i++ {
		if r := replica(i); &r[0] != &chunk[0] || len(r) != len(chunk) {
			t.Fatalf("node %d holds a copy of the chunk, not the chunk", i)
		}
	}
	rotKey := key
	rotKey.Index = 1
	if !c.Store().Node(1).Corrupt(rotKey, 5) {
		t.Fatal("premise: the mem store corrupts a stored replica")
	}
	if bytes.Equal(replica(1), data) {
		t.Fatal("premise: the corrupted replica differs")
	}
	for _, i := range []int{0, 2, 3} {
		if !bytes.Equal(replica(i), data) {
			t.Fatalf("bit rot on node 1 reached node %d's replica", i)
		}
	}
	if !bytes.Equal(chunk, data) {
		t.Fatal("bit rot on node 1 reached the writer's chunk")
	}
	for _, online := range []bool{false, true} { // read around node 0, then through it
		if err := c.SetOnline(0, online); err != nil {
			t.Fatal(err)
		}
		if got, err := v.Get(context.Background(), "obj"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read with node 0 online=%v: %v", online, err)
		}
	}
	got, err := Replication{N: 4}.Decode(&Encoded{PlainLen: len(data), Shards: [][]byte{chunk, chunk}})
	if err != nil || !bytes.Equal(got, data) || &got[0] == &chunk[0] {
		t.Fatalf("Decode: %v; returned the replica itself: %v", err, err == nil && &got[0] == &chunk[0])
	}
}

// TestShardDigestsOfAliasedShards: a shard that is the memory of the one
// before it gets that one's digest; a shorter window onto it, or equal
// bytes elsewhere, are hashed for what they are.
func TestShardDigestsOfAliasedShards(t *testing.T) {
	data := iotaBytes(100)
	other := iotaBytes(100)
	shards := [][]byte{data, data, data[:10], data, nil, other, data[1:]}
	got := ShardDigests(shards)
	for i, sh := range shards {
		var want [sha256.Size]byte
		if sh != nil {
			want = sha256.Sum256(sh)
		}
		if got[i] != want {
			t.Fatalf("shard %d: digest %x, want %x", i, got[i], want)
		}
	}
}

func TestVaultRenewIntegrityRotation(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	if err := v.Put(context.Background(), "r", []byte("rotate me")); err != nil {
		t.Fatal(err)
	}
	if err := v.RenewIntegrity(context.Background(), "r", sig.ECDSAP256); err != nil {
		t.Fatal(err)
	}
	if err := v.RenewIntegrity(context.Background(), "r", sig.RSAPSS2048); err != nil {
		t.Fatal(err)
	}
	chain := v.Chain("r")
	if chain.Len() != 3 {
		t.Fatalf("chain length %d, want 3", chain.Len())
	}
	if err := chain.Verify(100, sig.BreakSchedule{sig.Ed25519: 50}); err != nil {
		t.Fatalf("rotated chain invalid under ed25519 break: %v", err)
	}
}

func TestVaultRenewShares(t *testing.T) {
	v, c := testVault(t, SecretSharing{T: 4, N: 8})
	data := []byte("refresh my shards")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	before, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "r", Index: 0})
	if err := v.RenewShares(context.Background(), "r"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "r", Index: 0})
	if bytes.Equal(before.Data, after.Data) {
		t.Fatal("shard unchanged after renewal")
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data lost in renewal: %v", err)
	}
}

// TestVaultHashIntegrityMode: an object under an encoding whose nodes
// hold its bytes in the clear gets a hash chain, whose reference is the
// plaintext's digest, and reads back through it.
func TestVaultHashIntegrityMode(t *testing.T) {
	v, _ := testVault(t, Erasure{K: 4, N: 8})
	data := []byte("hash-chained record")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	d := sha256.Sum256(data)
	if chain := v.Chain("r"); chain.Mode != tstamp.RefHash || !bytes.Equal(chain.Links[0].Ref, d[:]) {
		t.Fatalf("Erasure object's chain: mode %d, ref %x; want a hash chain over %x", chain.Mode, chain.Links[0].Ref, d)
	}
	got, err := v.Get(context.Background(), "r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("hash-mode round trip: %v", err)
	}
}

func TestVaultTooSmallCluster(t *testing.T) {
	c := cluster.New(4, nil)
	if _, err := NewVault(c, SecretSharing{T: 4, N: 8}); err == nil {
		t.Fatal("oversubscribed cluster accepted")
	}
}

func TestVaultExportEvidence(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	data := []byte("evidence must outlive the process")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	if err := v.RenewIntegrity(context.Background(), "r", sig.ECDSAP256); err != nil {
		t.Fatal(err)
	}
	blob, err := v.ExportEvidence("r")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := tstamp.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 2 {
		t.Fatalf("exported chain has %d links", chain.Len())
	}
	if err := chain.Verify(100, nil); err != nil {
		t.Fatal(err)
	}
	if chain.GroupID() != v.Group.ID() {
		t.Fatalf("exported evidence names group %q, the vault commits on %q", chain.GroupID(), v.Group.ID())
	}
	// A SecretSharing object has a commitment chain: the export must not
	// contain the data's digest.
	d := sha256.Sum256(data)
	if bytes.Contains(blob, d[:]) {
		t.Fatal("exported evidence leaks the data digest")
	}
	if _, err := v.ExportEvidence("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: %v", err)
	}
}

func TestVaultStorageCost(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	data := make([]byte, 4096)
	rand.Read(data)
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	if oh := v.StorageCost("r"); oh < 7.9 || oh > 8.1 {
		t.Fatalf("secret sharing vault cost %.2f, want 8", oh)
	}
	if v.StorageCost("nope") != 0 {
		t.Fatal("phantom cost")
	}
}
