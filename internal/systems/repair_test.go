package systems

import (
	"bytes"
	"context"
	"crypto/rand"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
)

func TestVSRRepairRebuildsLostProvider(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, err := vsr.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Provider 2 loses its disk.
	if err := c.Delete(2, cluster.ShardKey{Object: "obj", Index: 2}); err != nil {
		t.Fatal(err)
	}
	if err := vsr.Repair(ref, 2, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// The repaired shard participates in retrieval: force nodes 0,1 off
	// so node 2 is needed.
	c.SetOnline(0, false)
	c.SetOnline(1, false)
	got, err := vsr.Retrieve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("repaired shard inconsistent")
	}
}

func TestVSRRepairAfterRenewal(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, _ := vsr.Store("obj", payload, rand.Reader)
	for i := 0; i < 3; i++ {
		c.AdvanceEpoch()
		if err := vsr.Renew(ref, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete(5, cluster.ShardKey{Object: "obj", Index: 5})
	if err := vsr.Repair(ref, 5, rand.Reader); err != nil {
		t.Fatal(err)
	}
	c.SetOnline(0, false)
	c.SetOnline(1, false)
	c.SetOnline(2, false)
	got, err := vsr.Retrieve(ref)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-renewal repair failed: %v", err)
	}
}

func TestVSRRepairSkipsCorruptHelpers(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, _ := vsr.Store("obj", payload, rand.Reader)
	// Corrupt helper 0's shard; repair of node 5 must route around it.
	rot(t, c, cluster.ShardKey{Object: "obj", Index: 0}, 0)
	if err := vsr.Repair(ref, 5, rand.Reader); err != nil {
		t.Fatal(err)
	}
	c.SetOnline(0, false)
	c.SetOnline(1, false)
	c.SetOnline(2, false)
	got, err := vsr.Retrieve(ref)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("repair used a corrupt helper: %v", err)
	}
}

func TestVSRRepairValidation(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, _ := vsr.Store("obj", payload, rand.Reader)
	if err := vsr.Repair(ref, 99, rand.Reader); err == nil {
		t.Fatal("bad provider index accepted")
	}
	if err := vsr.Repair(&Ref{Object: "ghost"}, 0, rand.Reader); err == nil {
		t.Fatal("unknown object accepted")
	}
}

// TestPOTSHARDSRobustRetrieve: a malicious provider returns garbage;
// RetrieveRobust checks no digests, so Berlekamp–Welch decoding carries
// it.
func TestPOTSHARDSRobustRetrieve(t *testing.T) {
	c := cluster.New(8, nil)
	pot, _ := NewPOTSHARDS(c, 6, 2) // n=6, t=2: corrects up to 2 errors
	ref, err := pot.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Two providers go malicious.
	for _, i := range []int{1, 4} {
		sh, _ := c.GetCtx(context.Background(), i, cluster.ShardKey{Object: "obj", Index: i})
		bad := append([]byte(nil), sh.Data...)
		for j := range bad {
			bad[j] ^= byte(j + 17)
		}
		overwrite(t, c, i, cluster.ShardKey{Object: "obj", Index: i}, bad)
	}
	got, err := pot.RetrieveRobust(ref, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("robust retrieval failed against 2 malicious providers")
	}
	// Plain retrieval routes around both providers too: their shards no
	// longer match the digests the vault recorded at Store.
	plain, err := pot.Retrieve(ref)
	if err != nil || !bytes.Equal(plain, payload) {
		t.Fatalf("plain retrieval did not route around the malicious providers: %v", err)
	}
}

func TestHasDPSSResize(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 4, 2, group.Test())
	key := []byte("a 28-byte master key secret!")
	ref, err := h.Store("k", key, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the committee to (4, 7).
	if err := h.Resize(ref, 7, 4, rand.Reader); err != nil {
		t.Fatal(err)
	}
	got, err := h.Retrieve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("key lost in resize")
	}
	// Shrink back to (2, 3): departed members' shards must be gone.
	if err := h.Resize(ref, 3, 2, rand.Reader); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 7; i++ {
		if _, err := c.GetCtx(context.Background(), i, cluster.ShardKey{Object: "k", Index: i}); err == nil {
			t.Fatalf("departed member %d still holds a shard", i)
		}
	}
	got, err = h.Retrieve(ref)
	if err != nil || !bytes.Equal(got, key) {
		t.Fatalf("key lost in shrink: %v", err)
	}
	// Ledger recorded store + 2 resizes and still replays.
	if len(h.Ledger) != 3 {
		t.Fatalf("ledger has %d blocks, want 3", len(h.Ledger))
	}
	if err := h.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
}

func TestHasDPSSResizeThenRenew(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 4, 2, group.Test())
	key := []byte("key material for rotation...")
	ref, _ := h.Store("k", key, rand.Reader)
	if err := h.Resize(ref, 6, 3, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := h.Renew(ref, rand.Reader); err != nil {
		t.Fatal(err)
	}
	got, err := h.Retrieve(ref)
	if err != nil || !bytes.Equal(got, key) {
		t.Fatalf("resize+renew lost the key: %v", err)
	}
}

func TestHasDPSSResizeTooManyNodes(t *testing.T) {
	c := cluster.New(4, nil)
	h, _ := NewHasDPSS(c, 4, 2, group.Test())
	ref, _ := h.Store("k", []byte("kkkk"), rand.Reader)
	if err := h.Resize(ref, 9, 4, rand.Reader); err == nil {
		t.Fatal("resize beyond cluster accepted")
	}
}

// TestVSRRepairNeedsEveryProvider pins Repair's contract as a vault
// scrub: repairing provider 2 while provider 4 is down fails and leaves
// the cluster and the meter as they were; once provider 4 is back, the
// repair re-shares the whole stripe, so every provider's share changes.
// The index only names a provider: Repair(ref, 5) rebuilds provider 2's
// lost share.
func TestVSRRepairNeedsEveryProvider(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, err := vsr.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(2, cluster.ShardKey{Object: "obj", Index: 2}); err != nil {
		t.Fatal(err)
	}
	before := make(map[int][]byte)
	for i := 0; i < 6; i++ {
		if sh, err := c.GetCtx(context.Background(), i, cluster.ShardKey{Object: "obj", Index: i}); err == nil {
			before[i] = sh.Data
		}
	}
	base, traffic := c.StoredBytes(), vsr.RenewTraffic
	c.SetOnline(4, false)
	if err := vsr.Repair(ref, 2, rand.Reader); err == nil {
		t.Fatal("repair succeeded with a non-target provider down")
	}
	wantBaseline(t, c, base)
	if vsr.RenewTraffic != traffic {
		t.Fatalf("failed repair metered %d bytes of traffic", vsr.RenewTraffic-traffic)
	}
	wantRetrieve(t, vsr, ref, payload)
	c.SetOnline(4, true)
	if err := vsr.Repair(ref, 5, rand.Reader); err != nil {
		t.Fatalf("repair with every provider up: %v", err)
	}
	for i := 0; i < 6; i++ {
		sh, err := c.GetCtx(context.Background(), i, cluster.ShardKey{Object: "obj", Index: i})
		if err != nil {
			t.Fatalf("provider %d holds no share after the repair: %v", i, err)
		}
		if bytes.Equal(sh.Data, before[i]) {
			t.Fatalf("provider %d's share was not re-randomised", i)
		}
	}
	// Providers 0, 1 and 3 off: the read needs the rebuilt share 2.
	for _, i := range []int{0, 1, 3} {
		c.SetOnline(i, false)
	}
	wantRetrieve(t, vsr, ref, payload)
}
