package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"securearchive/internal/cluster"
)

// Regression: a node dying mid-renewal must not leave the cluster holding
// shards from two encodings under a stale ClientSecret. The staged write
// aborts, the old stripe stays whole, and Get returns the original bytes.
func TestVaultRenewSharesPartialFailureRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  Encoding
	}{
		{"shamir", SecretSharing{T: 4, N: 8}},
		{"erasure", Erasure{K: 4, N: 8}},
		{"aes", TraditionalEncryption{K: 4, N: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, c := testVault(t, tc.enc)
			data := []byte("must survive a failed renewal intact")
			if err := v.Put(context.Background(), "r", data); err != nil {
				t.Fatal(err)
			}
			baseline := c.ObjectBytes("r")
			c.AdvanceEpoch() // a renewal now would stamp epoch 1
			c.SetOnline(5, false)
			if err := v.RenewShares(context.Background(), "r"); err == nil {
				t.Fatal("renewal with a dead node succeeded")
			}
			// No orphaned or staged bytes, no mixed epochs.
			if got := c.ObjectBytes("r"); got != baseline {
				t.Fatalf("object bytes %d after failed renewal, want %d", got, baseline)
			}
			if c.StagedCount() != 0 {
				t.Fatal("failed renewal leaked a stage")
			}
			c.SetOnline(5, true)
			for i := 0; i < 8; i++ {
				sh, err := c.GetCtx(context.Background(), i, cluster.ShardKey{Object: "r", Index: i})
				if err != nil {
					t.Fatalf("shard %d lost: %v", i, err)
				}
				if sh.Epoch != 0 {
					t.Fatalf("shard %d at epoch %d: stripe mixes encodings", i, sh.Epoch)
				}
			}
			got, err := v.Get(context.Background(), "r")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("data lost after failed renewal: %v", err)
			}
			// And the vault is still renewable once the node returns.
			if err := v.RenewShares(context.Background(), "r"); err != nil {
				t.Fatalf("renewal after recovery: %v", err)
			}
			got, err = v.Get(context.Background(), "r")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("data lost after recovered renewal: %v", err)
			}
		})
	}
}

// Regression: a failed multi-shard Put must not leave committed shards on
// the healthy nodes — StoredBytes returns to baseline and the object does
// not exist.
func TestVaultPutFailureLeavesNoOrphans(t *testing.T) {
	v, c := testVault(t, SecretSharing{T: 4, N: 8})
	if err := v.Put(context.Background(), "keep", []byte("pre-existing object")); err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()
	c.SetOnline(6, false)
	err := v.Put(context.Background(), "doomed", []byte("this write must leave no trace"))
	if !errors.Is(err, cluster.ErrNodeDown) {
		t.Fatalf("put with dead node: %v", err)
	}
	if got := c.StoredBytes(); got != baseline {
		t.Fatalf("stored bytes %d after failed put, want baseline %d", got, baseline)
	}
	if c.ObjectBytes("doomed") != 0 {
		t.Fatal("orphaned shards for unregistered object")
	}
	if c.StagedCount() != 0 {
		t.Fatal("failed put leaked a stage")
	}
	if _, err := v.Get(context.Background(), "doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("phantom object: %v", err)
	}
	// The id is reusable once the cluster heals.
	c.SetOnline(6, true)
	if err := v.Put(context.Background(), "doomed", []byte("second attempt lands")); err != nil {
		t.Fatal(err)
	}
}

// Acceptance: with a FaultPlan taking n−k nodes offline, Get still
// succeeds for RS, Shamir and packed encodings; once the nodes return,
// Scrub restores the stripe to full health.
func TestVaultDegradedReadAndScrubUnderFaultPlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  Encoding
	}{
		{"erasure", Erasure{K: 4, N: 8}},
		{"shamir", SecretSharing{T: 4, N: 8}},
		{"packed", PackedSharing{T: 2, K: 2, N: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, c := testVault(t, tc.enc)
			data := []byte("degraded reads keep the archive readable")
			if err := v.Put(context.Background(), "r", data); err != nil {
				t.Fatal(err)
			}
			n, min := tc.enc.Shards()
			// Take n−k nodes offline for epochs [0, 10) and make the
			// survivors flaky on top.
			plan := &cluster.FaultPlan{
				Seed:    42,
				Default: cluster.NodeFaults{TransientProb: 0.2},
				Nodes:   map[int]cluster.NodeFaults{},
			}
			for i := 0; i < n-min; i++ {
				plan.Nodes[i] = cluster.NodeFaults{Offline: []cluster.Window{{From: 0, To: 10}}}
				// The outage destroys the node's copy: it returns empty.
				c.Delete(i, cluster.ShardKey{Object: "r", Index: i})
			}
			c.SetFaultPlan(plan)
			got, err := v.Get(context.Background(), "r")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("degraded get with %d/%d nodes: %v", min, n, err)
			}
			// Scrub cannot rewrite while nodes are down; it must fail
			// without touching the stripe.
			if rep, err := v.Scrub(context.Background(), "r"); err == nil {
				t.Fatalf("scrub repaired with nodes offline: %+v", rep)
			}
			if got, err := v.Get(context.Background(), "r"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("failed scrub damaged the stripe: %v", err)
			}
			// Nodes return: scrub restores full health.
			c.SetFaultPlan(nil)
			rep, err := v.Scrub(context.Background(), "r")
			if err != nil {
				t.Fatalf("scrub after recovery: %v", err)
			}
			if !rep.Repaired || len(rep.Missing) != n-min {
				t.Fatalf("scrub report %+v, want %d missing repaired", rep, n-min)
			}
			rep, err = v.Scrub(context.Background(), "r")
			if err != nil || !rep.Clean() {
				t.Fatalf("stripe not at full health after repair: %+v %v", rep, err)
			}
		})
	}
}

// Bit rot injected by the fault plan: the degraded read routes around the
// rotted shard via its digest, and Scrub localises and repairs it.
func TestVaultScrubRepairsBitRot(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	data := []byte("one flipped bit should never cost an archive an object")
	if err := v.Put(context.Background(), "r", data); err != nil {
		t.Fatal(err)
	}
	// Rot node 2's shard deterministically: one read with p=1.
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 5, Nodes: map[int]cluster.NodeFaults{
		2: {CorruptProb: 1.0},
	}})
	if _, err := c.GetCtx(context.Background(), 2, cluster.ShardKey{Object: "r", Index: 2}); err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(nil)
	got, err := v.Get(context.Background(), "r")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get with rotted shard: %v", err)
	}
	rep, err := v.Scrub(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != 2 || !rep.Repaired {
		t.Fatalf("scrub misdiagnosed rot: %+v", rep)
	}
	rep, _ = v.Scrub(context.Background(), "r")
	if !rep.Clean() {
		t.Fatalf("rot survived repair: %+v", rep)
	}
}

// ScrubAll sweeps every object and reports per-object health.
func TestVaultScrubAll(t *testing.T) {
	v, c := testVault(t, SecretSharing{T: 4, N: 8})
	for _, id := range []string{"a", "b", "c"} {
		if err := v.Put(context.Background(), id, []byte("object "+id)); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete(3, cluster.ShardKey{Object: "b", Index: 3})
	reports, err := v.ScrubAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3", len(reports))
	}
	for _, rep := range reports {
		if rep.Object == "b" {
			if !rep.Repaired || len(rep.Missing) != 1 {
				t.Fatalf("b not repaired: %+v", rep)
			}
		} else if !rep.Clean() {
			t.Fatalf("%s dirtied: %+v", rep.Object, rep)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		got, err := v.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, []byte("object "+id)) {
			t.Fatalf("%s after sweep: %v", id, err)
		}
	}
}
