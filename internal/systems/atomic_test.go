package systems

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"securearchive/internal/cluster"
)

// TestOneNodeDownWritesAreAllOrNothing takes one node of an 8-node
// cluster offline under each Table 1 system's writes and then brings it
// back. Every write puts a shard on each node of the stripe, so with one
// of them down it must fail, and a failed write must leave no trace: the
// cluster's StoredBytes and StagedCount back at their baseline, the
// client state untouched (the object still retrieves its original
// bytes), and the same write succeeding once the node is back. Nodes 0,
// 1 and 3 fail a write before, early in and midway through the stripe.
func TestOneNodeDownWritesAreAllOrNothing(t *testing.T) {
	key := []byte("a 28-byte master key secret!")
	cases := []struct {
		name  string
		data  []byte
		build func(c *cluster.Cluster) (Archive, error)
	}{
		{"ArchiveSafeLT", payload, func(c *cluster.Cluster) (Archive, error) { return NewArchiveSafeLT(c, nil, 4, 2) }},
		{"AONT-RS", payload, func(c *cluster.Cluster) (Archive, error) { return NewAONTRS(c, 4, 6) }},
		{"HasDPSS", key, func(c *cluster.Cluster) (Archive, error) { return NewHasDPSS(c, 6, 3) }},
		{"LINCOS", payload, func(c *cluster.Cluster) (Archive, error) { return NewLINCOS(c, 6, 3, 1) }},
		{"PASIS", payload, func(c *cluster.Cluster) (Archive, error) { return NewPASIS(c, PASISErasure, 6, 3) }},
		{"POTSHARDS", payload, func(c *cluster.Cluster) (Archive, error) { return NewPOTSHARDS(c, 6, 3) }},
		{"VSR", payload, func(c *cluster.Cluster) (Archive, error) { return NewVSRArchive(c, 6, 3) }},
		{"CloudAES", payload, func(c *cluster.Cluster) (Archive, error) { return NewCloudAES(c, 4, 2) }},
	}
	for _, tc := range cases {
		for _, down := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/store/node%d", tc.name, down), func(t *testing.T) {
				c := cluster.New(8, nil)
				sys, err := tc.build(c)
				if err != nil {
					t.Fatal(err)
				}
				c.SetOnline(down, false)
				if _, err := sys.Store("obj", tc.data, rand.Reader); err == nil {
					t.Fatal("store succeeded with a stripe node down")
				}
				c.SetOnline(down, true)
				wantBaseline(t, c, 0)
				ref, err := sys.Store("obj", tc.data, rand.Reader)
				if err != nil {
					t.Fatalf("store after the node came back: %v", err)
				}
				wantRetrieve(t, sys, ref, tc.data)
			})
			t.Run(fmt.Sprintf("%s/renew/node%d", tc.name, down), func(t *testing.T) {
				c := cluster.New(8, nil)
				sys, err := tc.build(c)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sys.Store("obj", tc.data, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				base := c.StoredBytes()
				c.AdvanceEpoch()
				c.SetOnline(down, false)
				if err := sys.Renew(ref, rand.Reader); err == nil {
					t.Fatal("renewal succeeded with a stripe node down")
				}
				c.SetOnline(down, true)
				wantBaseline(t, c, base)
				wantRetrieve(t, sys, ref, tc.data)
				if err := sys.Renew(ref, rand.Reader); err != nil && !errors.Is(err, ErrNotSupported) {
					t.Fatalf("renewal after the node came back: %v", err)
				}
				wantRetrieve(t, sys, ref, tc.data)
			})
		}
	}

	t.Run("HasDPSS/resize/node6", func(t *testing.T) {
		c := cluster.New(8, nil)
		h, err := NewHasDPSS(c, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.Store("k", key, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		base, blocks := c.StoredBytes(), len(h.Ledger)
		c.SetOnline(6, false) // a joining member
		if err := h.Resize(ref, 8, 4, rand.Reader); err == nil {
			t.Fatal("resize succeeded with a joining member down")
		}
		c.SetOnline(6, true)
		wantBaseline(t, c, base)
		if len(h.Ledger) != blocks {
			t.Fatalf("failed resize appended to the ledger: %d blocks, want %d", len(h.Ledger), blocks)
		}
		wantRetrieve(t, h, ref, key)
		if err := h.Resize(ref, 8, 4, rand.Reader); err != nil {
			t.Fatalf("resize after the node came back: %v", err)
		}
		wantRetrieve(t, h, ref, key)
	})

	t.Run("VSR/repair/node5", func(t *testing.T) {
		c := cluster.New(8, nil)
		vsr, err := NewVSRArchive(c, 6, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := vsr.Store("obj", payload, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		base, traffic := c.StoredBytes(), vsr.RenewTraffic
		c.SetOnline(5, false)
		if err := vsr.Repair(ref, 5, rand.Reader); err == nil {
			t.Fatal("repair succeeded with its target down")
		}
		c.SetOnline(5, true)
		wantBaseline(t, c, base)
		if vsr.RenewTraffic != traffic {
			t.Fatalf("failed repair metered %d bytes of traffic", vsr.RenewTraffic-traffic)
		}
		if err := vsr.Repair(ref, 5, rand.Reader); err != nil {
			t.Fatalf("repair after the node came back: %v", err)
		}
		// Nodes 0–2 off: the read needs the repaired shard.
		for i := 0; i < 3; i++ {
			c.SetOnline(i, false)
		}
		wantRetrieve(t, vsr, ref, payload)
	})
}

// wantBaseline fails unless the cluster holds exactly base bytes and no
// staged shard.
func wantBaseline(t *testing.T, c *cluster.Cluster, base int64) {
	t.Helper()
	if got := c.StoredBytes(); got != base {
		t.Fatalf("StoredBytes = %d after a failed write, want %d", got, base)
	}
	if got := c.StagedCount(); got != 0 {
		t.Fatalf("StagedCount = %d after a failed write, want 0", got)
	}
}

// wantRetrieve fails unless ref retrieves exactly want.
func wantRetrieve(t *testing.T, sys Archive, ref *Ref, want []byte) {
	t.Helper()
	got, err := sys.Retrieve(ref)
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("retrieve returned wrong bytes")
	}
}
