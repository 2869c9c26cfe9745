package adversary

import (
	"context"
	"fmt"
	"testing"

	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/sig"
)

// seedCluster stores one object's shards, one per node.
func seedCluster(n int) *cluster.Cluster {
	c := cluster.New(n, nil)
	writeStripe(c, func(i int) string { return fmt.Sprintf("shard-%d", i) })
	return c
}

// writeStripe writes object "obj" across every node, shard i on node i,
// staged and committed as one stripe.
func writeStripe(c *cluster.Cluster, shard func(i int) string) {
	for i := 0; i < c.Size(); i++ {
		_ = c.PutStagedCtx(context.Background(), i, "w", cluster.ShardKey{Object: "obj", Index: i}, []byte(shard(i)))
	}
	c.CommitStage("w")
}

func TestBudgetEnforcedPerEpoch(t *testing.T) {
	c := seedCluster(6)
	m := NewMobile(2, 1)
	if !m.Corrupt(c, 0) || !m.Corrupt(c, 1) {
		t.Fatal("within-budget corruptions refused")
	}
	if m.Corrupt(c, 2) {
		t.Fatal("third corruption in one epoch allowed with budget 2")
	}
	c.AdvanceEpoch()
	if !m.Corrupt(c, 2) {
		t.Fatal("budget did not reset on epoch advance")
	}
}

func TestCorruptRandomRespectsBudget(t *testing.T) {
	c := seedCluster(10)
	m := NewMobile(3, 42)
	if got := m.CorruptRandom(c); got != 3 {
		t.Fatalf("corrupted %d, want 3", got)
	}
	if got := m.CorruptRandom(c); got != 0 {
		t.Fatalf("second sweep in same epoch corrupted %d, want 0", got)
	}
}

// TestMobileEventuallyVisitsAllNodes: node i holds shard i, so the
// distinct shards harvested count the nodes visited.
func TestMobileEventuallyVisitsAllNodes(t *testing.T) {
	c := seedCluster(8)
	m := NewMobile(2, 7)
	for epoch := 0; epoch < 50 && m.MaxAnyEpochShards("obj") < 8; epoch++ {
		m.CorruptRandom(c)
		c.AdvanceEpoch()
	}
	if got := m.MaxAnyEpochShards("obj"); got != 8 {
		t.Fatalf("visited %d/8 nodes after 50 epochs", got)
	}
}

func TestHarvestRecordsEpochs(t *testing.T) {
	c := seedCluster(4)
	m := NewMobile(1, 3)
	m.Corrupt(c, 0)
	c.AdvanceEpoch()
	m.Corrupt(c, 1)
	h := m.Harvest("obj")
	if len(h) != 2 {
		t.Fatalf("harvest size %d, want 2", len(h))
	}
	if h[0].HarvestEpoch != 0 || h[1].HarvestEpoch != 1 {
		t.Fatalf("harvest epochs %d,%d", h[0].HarvestEpoch, h[1].HarvestEpoch)
	}
	if len(m.vault) != 1 || len(m.Harvest("other")) != 0 {
		t.Fatalf("vault holds %d objects, want only obj", len(m.vault))
	}
}

// TestSameEpochVsAnyEpochAccounting models the renewal distinction: if the
// object's shards are rewritten (new epoch) between corruptions, the
// same-epoch count stays below the any-epoch count.
func TestSameEpochVsAnyEpochAccounting(t *testing.T) {
	c := cluster.New(4, nil)
	writeStripe(c, func(int) string { return "v0" })
	m := NewMobile(1, 9)
	m.Corrupt(c, 0) // harvest shard 0 (write epoch 0)
	c.AdvanceEpoch()
	// Victim renews: rewrites all shards at epoch 1.
	writeStripe(c, func(int) string { return "v1" })
	m.Corrupt(c, 1) // harvest shard 1 (write epoch 1)
	c.AdvanceEpoch()
	m.Corrupt(c, 2) // harvest shard 2 (write epoch 1)

	if got := m.MaxAnyEpochShards("obj"); got != 3 {
		t.Fatalf("any-epoch shards %d, want 3", got)
	}
	d := m.DistinctShards("obj")
	if len(d[0]) != 1 || len(d[1]) != 2 {
		t.Fatalf("distinct shard map wrong: %v", d)
	}
}

func TestCorruptInvalidNode(t *testing.T) {
	c := seedCluster(2)
	m := NewMobile(5, 1)
	if m.Corrupt(c, 99) {
		t.Fatal("corrupting a nonexistent node succeeded")
	}
}

func TestBreaksSchedule(t *testing.T) {
	b := Breaks{
		Ciphers:    map[cascade.Scheme]int{cascade.AES256CTR: 10},
		Signatures: sig.BreakSchedule{sig.Ed25519: 20},
		HashBroken: 30,
	}
	if b.CipherBrokenAt(cascade.AES256CTR, 9) {
		t.Fatal("broken early")
	}
	if !b.CipherBrokenAt(cascade.AES256CTR, 10) {
		t.Fatal("not broken at epoch")
	}
	if b.CipherBrokenAt(cascade.ChaCha20, 1000) {
		t.Fatal("unscheduled cipher broken")
	}
	if b.HashBrokenAt(29) || !b.HashBrokenAt(30) {
		t.Fatal("hash break epoch wrong")
	}
	all := Breaks{Ciphers: map[cascade.Scheme]int{
		cascade.AES256CTR: 1, cascade.ChaCha20: 2, cascade.SHA256CTR: 3,
	}}
	for _, s := range cascade.Schemes() {
		if !all.CipherBrokenAt(s, 3) {
			t.Fatalf("%s not broken by epoch 3", s)
		}
	}
	if all.CipherBrokenAt(cascade.SHA256CTR, 2) {
		t.Fatal("SHA256CTR broken before its epoch")
	}
}

func TestZeroBreaksBreakNothing(t *testing.T) {
	var b Breaks
	if b.CipherBrokenAt(cascade.AES256CTR, 1<<30) || b.HashBrokenAt(1<<30) {
		t.Fatal("zero Breaks broke something")
	}
}
