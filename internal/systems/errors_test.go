package systems

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
)

func TestRetrieveUnknownRefs(t *testing.T) {
	systems, _ := allSystems(t)
	ghost := &Ref{Object: "never-stored", PlainLen: 10}
	for _, name := range []string{"cloud", "archivesafe", "aontrs", "potshards", "pasis", "hasdpss", "vsr", "lincos"} {
		if _, err := systems[name].Retrieve(ghost); !errors.Is(err, ErrUnknownRef) {
			t.Errorf("%s: unknown ref: %v", name, err)
		}
	}
}

func TestRetrievalBelowThresholdFails(t *testing.T) {
	systems, c := allSystems(t)
	refs := map[string]*Ref{}
	for name, sys := range systems {
		ref, err := sys.Store("bt-"+name, dataFor(name), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	// Kill 6 of 8 nodes: every system's threshold is violated.
	for i := 0; i < 6; i++ {
		c.SetOnline(i, false)
	}
	for name, sys := range systems {
		if _, err := sys.Retrieve(refs[name]); err == nil {
			t.Errorf("%s: retrieved below threshold", name)
		}
	}
}

func TestBreachOnUnknownObject(t *testing.T) {
	systems, _ := allSystems(t)
	adv := adversary.NewMobile(1, 1)
	ghost := &Ref{Object: "ghost", PlainLen: 4}
	for name, sys := range systems {
		res := sys.Breach(adv, ghost, adversary.Breaks{}, 0)
		if res.Violated {
			t.Errorf("%s: breached a never-stored object", name)
		}
	}
}

func TestVSRRenewUnknownObject(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	if err := vsr.Renew(&Ref{Object: "ghost", PlainLen: 4}, rand.Reader); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("ghost renew: %v", err)
	}
}

func TestVSRRenewWithNodeDownFails(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, _ := vsr.Store("obj", payload, rand.Reader)
	c.SetOnline(2, false)
	// Herzberg renewal is all-hands: a missing holder aborts the round
	// (a real deployment would first run Repair or Redistribute).
	if err := vsr.Renew(ref, rand.Reader); err == nil {
		t.Fatal("renewal succeeded with a holder offline")
	}
}

// TestLINCOSIntegrityRejectsClusterTamper tampers with LINCOS's shares
// on the nodes. With three of six tampered, the three intact ones still
// decode and the read must return the exact bytes; with n−t+1 = 4
// tampered, fewer than t intact shares remain and the read must fail —
// never return wrong bytes.
func TestLINCOSIntegrityRejectsClusterTamper(t *testing.T) {
	for _, tampered := range []int{3, 4} {
		c := cluster.New(8, nil)
		lin, err := NewLINCOS(c, 6, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := lin.Store("obj", payload, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tampered; i++ {
			rot(t, c, cluster.ShardKey{Object: "obj", Index: i}, 0)
		}
		got, err := lin.Retrieve(ref)
		switch {
		case tampered == 3 && (err != nil || !bytes.Equal(got, payload)):
			t.Fatalf("3 tampered shares: read %q, %v; want the exact bytes", got, err)
		case tampered == 4 && err == nil:
			t.Fatal("4 tampered shares: read succeeded with fewer than t intact")
		}
	}
}

// TestLINCOSPadReplenishment: sustained stores exhaust the initial QKD
// pad pools; the system must run further sessions rather than fail.
func TestLINCOSPadReplenishment(t *testing.T) {
	c := cluster.New(8, nil)
	lin, err := NewLINCOS(c, 6, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	before := lin.QKDSessions
	big := make([]byte, 300<<10) // each store consumes 300 KiB per link pad
	for i := 0; i < 5; i++ {
		ref, err := lin.Store(string(rune('a'+i)), big, rand.Reader)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		got, err := lin.Retrieve(ref)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("retrieve %d: %v", i, err)
		}
	}
	if lin.QKDSessions <= before {
		t.Fatal("no replenishment sessions ran despite pad exhaustion")
	}
}

func TestPASISReplicationBreachNeedsOneNode(t *testing.T) {
	c := cluster.New(8, nil)
	p, _ := NewPASIS(c, PASISReplication, 4, 1)
	ref, _ := p.Store("obj", payload, rand.Reader)
	adv := adversary.NewMobile(1, 4)
	res := p.Breach(adv, ref, adversary.Breaks{}, 0)
	if res.Violated {
		t.Fatal("breach before any corruption")
	}
	adv.Corrupt(c, 0)
	res = p.Breach(adv, ref, adversary.Breaks{}, 0)
	if !res.Full || !bytes.Equal(res.Recovered, payload) {
		t.Fatalf("replication breach: %+v", res)
	}
}

func TestPASISErasureBreachPartial(t *testing.T) {
	c := cluster.New(8, nil)
	p, _ := NewPASIS(c, PASISErasure, 6, 3)
	ref, _ := p.Store("obj", payload, rand.Reader)
	adv := adversary.NewMobile(1, 6)
	adv.Corrupt(c, 0)
	res := p.Breach(adv, ref, adversary.Breaks{}, 0)
	if !res.Violated || res.Full {
		t.Fatalf("one systematic shard should be a partial leak: %+v", res)
	}
	adv2 := adversary.NewMobile(3, 7)
	adv2.Corrupt(c, 0)
	adv2.Corrupt(c, 1)
	adv2.Corrupt(c, 2)
	res = p.Breach(adv2, ref, adversary.Breaks{}, 0)
	if !res.Full {
		t.Fatalf("k shards should fully decode: %+v", res)
	}
}

// TestCloudAESRenewRotatesKey: a renewal re-encrypts under a fresh key
// and nonce, so every stored shard changes — shard 0 is checked.
func TestCloudAESRenewRotatesKey(t *testing.T) {
	c := cluster.New(8, nil)
	cloud, _ := NewCloudAES(c, 4, 2)
	ref, _ := cloud.Store("obj", payload, rand.Reader)
	key := cluster.ShardKey{Object: "obj", Index: 0}
	before, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.Renew(ref, rand.Reader); err != nil {
		t.Fatal(err)
	}
	after, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before.Data, after.Data) {
		t.Fatal("renew did not re-encrypt shard 0")
	}
	got, err := cloud.Retrieve(ref)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-renew retrieve: %v", err)
	}
}

func TestHasDPSSStaleShareRejectedAtRetrieve(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 6, 3)
	key := []byte("a 28-byte master key secret!")
	ref, _ := h.Store("k", key, rand.Reader)
	// Keep node 0's pre-renewal shard and put it back afterwards: the
	// VSS check must reject it and route around.
	old, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "k", Index: 0})
	if err := h.Renew(ref, rand.Reader); err != nil {
		t.Fatal(err)
	}
	overwrite(t, c, 0, cluster.ShardKey{Object: "k", Index: 0}, old.Data)
	got, err := h.Retrieve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("stale share poisoned retrieval despite VSS")
	}
}
