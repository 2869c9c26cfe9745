package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
)

// Acceptance: with exactly n−k+1 nodes offline the stripe is one shard
// short of decodable, and Get must say so — a typed DegradedError naming
// got/want and the per-node causes, not a scheme-level decode error.
func TestVaultGetDegradedBelowThreshold(t *testing.T) {
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
			data := []byte("below threshold the read must fail loudly")
			if err := v.Put(context.Background(), "r", data); err != nil {
				t.Fatal(err)
			}
			n, min := tc.enc.Shards()
			for i := 0; i < n-min+1; i++ {
				c.SetOnline(i, false)
			}
			_, err := v.Get(context.Background(), "r")
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("get with %d nodes down: %v, want ErrDegraded", n-min+1, err)
			}
			var de *DegradedError
			if !errors.As(err, &de) {
				t.Fatalf("error %T does not unwrap to *DegradedError", err)
			}
			if de.Got != min-1 || de.Want != min {
				t.Fatalf("got/want = %d/%d, want %d/%d", de.Got, de.Want, min-1, min)
			}
			msg := err.Error()
			if !strings.Contains(msg, "insufficient shards: got") || !strings.Contains(msg, "node 0: down") {
				t.Fatalf("error text lacks counts or attribution: %q", msg)
			}
			// One node back above the threshold: the read recovers.
			c.SetOnline(0, true)
			got, err := v.Get(context.Background(), "r")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get at exact threshold: %v", err)
			}
		})
	}
}

// A read that routes around bit rot must queue the object for scrubbing
// and bump vault.read.discarded — the repair loop learns from reads.
func TestVaultRotDiscardQueuesScrub(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	v, err := NewVault(c, Erasure{K: 4, N: 8}, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("rot routed around must still get repaired")
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
	if d := v.DirtyObjects(); len(d) != 1 || d[0] != "r" {
		t.Fatalf("dirty queue = %v, want [r]", d)
	}
	if n := reg.Counter("vault.read.discarded").Load(); n < 1 {
		t.Fatalf("vault.read.discarded = %d, want >= 1", n)
	}
	if n := reg.Snapshot().Counters[`cluster.discard{node="02"}`]; n < 1 {
		t.Fatalf("per-node discard attribution missing: %d", n)
	}

	// ScrubAll repairs the rot and drains the dirty queue.
	reports, err := v.ScrubAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var repaired bool
	for _, rep := range reports {
		if rep.Object == "r" && rep.Repaired && len(rep.Corrupt) == 1 && rep.Corrupt[0] == 2 {
			repaired = true
		}
	}
	if !repaired {
		t.Fatalf("scrub did not repair the discarded shard: %+v", reports)
	}
	if d := v.DirtyObjects(); len(d) != 0 {
		t.Fatalf("dirty queue not drained: %v", d)
	}
	if n := reg.Counter("vault.scrub.repairs").Load(); n < 1 {
		t.Fatalf("vault.scrub.repairs = %d, want >= 1", n)
	}
}

// Metrics acceptance: an instrumented put/get round trip under transient
// faults shows up in the snapshot — each operation once as its latency
// pair, stage commits, probes, and the read size histogram.
func TestVaultMetricsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	v, err := NewVault(c, SecretSharing{T: 4, N: 8}, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Put(context.Background(), "m", []byte("measured object")); err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 11, Default: cluster.NodeFaults{TransientProb: 0.4}})
	for i := 0; i < 8; i++ {
		if _, err := v.Get(context.Background(), "m"); err != nil {
			t.Fatalf("get %d under transients: %v", i, err)
		}
	}
	c.SetFaultPlan(nil)

	snap := reg.Snapshot()
	if got := snap.Histograms["cluster.staged.ok"].Count; got != 8 {
		t.Fatalf("cluster.staged.ok count = %d, want 8 (one per shard)", got)
	}
	if snap.Counters["cluster.stage.commit"] != 1 {
		t.Fatalf("cluster.stage.commit = %d, want 1", snap.Counters["cluster.stage.commit"])
	}
	if snap.Sum("cluster.probe") == 0 {
		t.Fatal("cluster.probe{node} not counted")
	}
	if snap.Histograms["cluster.get.ok"].Count == 0 || snap.Histograms["cluster.get.err"].Count == 0 {
		t.Fatalf("cluster.get pair under transients: ok %+v err %+v",
			snap.Histograms["cluster.get.ok"], snap.Histograms["cluster.get.err"])
	}
	h, ok := snap.Histograms["vault.get.bytes"]
	if !ok || h.Count != 8 || h.Sum != 8*float64(len("measured object")) {
		t.Fatalf("vault.get.bytes histogram wrong: %+v", h)
	}
	if got := snap.Histograms["vault.put.ok"].Count; got != 1 {
		t.Fatalf("vault.put.ok count = %d, want 1", got)
	}
	if got := snap.Histograms["vault.get.ok"].Count; got != 8 {
		t.Fatalf("vault.get.ok count = %d, want 8", got)
	}
	// 8 reads at p=0.4 transients with seeded determinism must retry.
	if snap.Sum("cluster.retry") < 1 {
		t.Fatal("cluster.retry{node} did not move under transients")
	}
}

// Regression: retries used to be counted in obs.Default() whatever
// registry the cluster used, and a staged write's retries reached no
// per-node series at all. Both the write and the read path must land on
// the cluster's own cluster.retry{node} and leave the process-wide
// registry alone.
func TestRetriesLandOnTheClustersRegistry(t *testing.T) {
	before := obs.Default().Snapshot()
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	v, err := NewVault(c, Erasure{K: 4, N: 8}, WithRegistry(reg),
		VaultOption(func(v *Vault) {
			v.retry = cluster.RetryPolicy{MaxAttempts: 32, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
		}))
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 3, Default: cluster.NodeFaults{TransientProb: 0.5}})
	if err := v.Put(context.Background(), "r", []byte("retried on the way in and on the way out")); err != nil {
		t.Fatal(err)
	}
	afterPut := reg.Snapshot().Sum("cluster.retry")
	if afterPut == 0 {
		t.Fatal("a staged put under 50% transients left cluster.retry{node} at 0")
	}
	for i := 0; i < 4; i++ {
		if _, err := v.Get(context.Background(), "r"); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Snapshot().Sum("cluster.retry") == afterPut {
		t.Fatal("gets under 50% transients did not move cluster.retry{node}")
	}
	// cluster.New resolves its series in obs.Default() before UseRegistry
	// moves it; they may appear there, at zero, but nothing may count.
	after := obs.Default().Snapshot()
	for name, v := range after.Counters {
		if v != before.Counters[name] {
			t.Errorf("obs.Default() %s moved %d → %d", name, before.Counters[name], v)
		}
	}
	for name, h := range after.Histograms {
		if h.Count != before.Histograms[name].Count {
			t.Errorf("obs.Default() %s moved %d → %d", name, before.Histograms[name].Count, h.Count)
		}
	}
}
