package systems

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/sec"
)

var payload = []byte("a long-lived archival record: census data, medical imagery, treaties")

// allSystems builds one instance of every Table 1 system on a fresh
// 8-node cluster.
func allSystems(t *testing.T) (map[string]Archive, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(8, nil)
	out := make(map[string]Archive)

	cloud, err := NewCloudAES(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["cloud"] = cloud

	asl, err := NewArchiveSafeLT(c, nil, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["archivesafe"] = asl

	ars, err := NewAONTRS(c, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	out["aontrs"] = ars

	pot, err := NewPOTSHARDS(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["potshards"] = pot

	vsr, err := NewVSRArchive(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["vsr"] = vsr

	lin, err := NewLINCOS(c, 6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	out["lincos"] = lin

	pas, err := NewPASIS(c, PASISSecretShare, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["pasis"] = pas

	has, err := NewHasDPSS(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["hasdpss"] = has

	return out, c
}

// overwrite replaces the live shard at key on node with data — a
// provider tampering with what it holds — by staging and committing it.
func overwrite(t *testing.T, c *cluster.Cluster, node int, key cluster.ShardKey, data []byte) {
	t.Helper()
	stage := fmt.Sprintf("tamper:%d:%v", node, key)
	if err := c.PutStagedCtx(context.Background(), node, stage, key, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitStage(stage); err != nil {
		t.Fatal(err)
	}
}

func dataFor(name string) []byte {
	if name == "hasdpss" {
		return []byte("a 28-byte master key secret!") // key-sized
	}
	return payload
}

func TestAllSystemsRoundTrip(t *testing.T) {
	systems, _ := allSystems(t)
	for name, sys := range systems {
		data := dataFor(name)
		ref, err := sys.Store("obj-"+name, data, rand.Reader)
		if err != nil {
			t.Fatalf("%s store: %v", name, err)
		}
		got, err := sys.Retrieve(ref)
		if err != nil {
			t.Fatalf("%s retrieve: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// TestAvailabilityUnderNodeFailure: every system must survive the failure
// of nodes up to its redundancy.
func TestAvailabilityUnderNodeFailure(t *testing.T) {
	cases := []struct {
		name      string
		downNodes []int
	}{
		{"cloud", []int{0, 5}}, // RS(4,2): 2 of 6 shards lost
		{"archivesafe", []int{1, 4}},
		{"aontrs", []int{0, 1}},       // 4-of-6
		{"potshards", []int{3, 4, 5}}, // t=3 of 6: 3 may fail
		{"vsr", []int{0, 1, 2}},
		{"lincos", []int{1, 3, 5}},
		{"pasis", []int{0, 2, 4}},
		{"hasdpss", []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			systems, c := allSystems(t)
			sys := systems[tc.name]
			data := dataFor(tc.name)
			ref, err := sys.Store("obj", data, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range tc.downNodes {
				if err := c.SetOnline(n, false); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sys.Retrieve(ref)
			if err != nil {
				t.Fatalf("retrieve with %v down: %v", tc.downNodes, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("mismatch after failures")
			}
		})
	}
}

// TestTable1Classifications pins PASIS's at-rest class per mode — Table
// 1's "ITS (sometimes)"; TestTable1MatchesPaper checks every row.
func TestTable1Classifications(t *testing.T) {
	c := cluster.New(8, nil)
	ss, _ := NewPASIS(c, PASISSecretShare, 6, 3)
	if ss.Classify().RestClass != sec.IT {
		t.Error("PASIS secret-share mode must be ITS at rest")
	}
	enc, _ := NewPASIS(c, PASISEncryptEC, 6, 3)
	if enc.Classify().RestClass != sec.Computational {
		t.Error("PASIS encrypt mode must be computational at rest")
	}
	rep, _ := NewPASIS(c, PASISReplication, 3, 1)
	if rep.Classify().RestClass != sec.None {
		t.Error("PASIS replication mode has no confidentiality")
	}
}

// TestTable1StorageCosts pins the cost column: Low (≈n/k ≤ 2) for
// cascade/AONT/cloud, High (≈n) for the secret-sharing systems.
func TestTable1StorageCosts(t *testing.T) {
	systems, c := allSystems(t)
	lowCost := []string{"cloud", "archivesafe", "aontrs"}
	highCost := []string{"potshards", "vsr", "lincos", "pasis"}
	// Archive-sized objects: AONT's constant key/canary blocks and cascade
	// nonces amortise away, which is the regime Table 1 describes.
	big := make([]byte, 64<<10)
	rand.Read(big)
	refs := map[string]*Ref{}
	for name, sys := range systems {
		data := big
		if name == "hasdpss" {
			data = dataFor(name)
		}
		ref, err := sys.Store("cost-"+name, data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	for _, name := range lowCost {
		oh := StorageCost(c, refs[name])
		if sec.BandFromOverhead(oh) != sec.CostLow {
			t.Errorf("%s overhead %.2f classified %s, want Low", name, oh, sec.BandFromOverhead(oh))
		}
	}
	for _, name := range highCost {
		oh := StorageCost(c, refs[name])
		if sec.BandFromOverhead(oh) != sec.CostHigh {
			t.Errorf("%s overhead %.2f classified %s, want High", name, oh, sec.BandFromOverhead(oh))
		}
	}
}

func TestRenewSupport(t *testing.T) {
	systems, _ := allSystems(t)
	renewable := []string{"cloud", "archivesafe", "aontrs", "vsr", "lincos", "hasdpss"}
	for _, name := range renewable {
		sys := systems[name]
		data := dataFor(name)
		ref, err := sys.Store("rn-"+name, data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Renew(ref, rand.Reader); err != nil {
			t.Fatalf("%s renew: %v", name, err)
		}
		got, err := sys.Retrieve(ref)
		if err != nil {
			t.Fatalf("%s retrieve after renew: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: renew corrupted data", name)
		}
	}
	for _, name := range []string{"potshards", "pasis"} {
		sys := systems[name]
		ref, _ := sys.Store("nr-"+name, dataFor(name), rand.Reader)
		if err := sys.Renew(ref, rand.Reader); !errors.Is(err, ErrNotSupported) {
			t.Fatalf("%s renew should be unsupported: %v", name, err)
		}
	}
}

func TestVSRVerifiedRetrievalSkipsCorruptProvider(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, err := vsr.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 returns garbage.
	rot(t, c, cluster.ShardKey{Object: "obj", Index: 0}, 0)
	got, err := vsr.Retrieve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corrupt provider poisoned retrieval")
	}
}

func TestHasDPSSLedger(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 6, 3)
	ref, err := h.Store("k1", []byte("key material"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Renew(ref, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if len(h.Ledger) != 2 {
		t.Fatalf("ledger has %d blocks, want 2", len(h.Ledger))
	}
	if err := h.VerifyLedger(); err != nil {
		t.Fatal(err)
	}
	h.Ledger[0].Op = "tampered"
	if err := h.VerifyLedger(); err == nil {
		t.Fatal("ledger tampering undetected")
	}
}

func TestHasDPSSRejectsBulkData(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 6, 3)
	if _, err := h.Store("big", make([]byte, 1000), rand.Reader); err == nil {
		t.Fatal("bulk data accepted by key-management system")
	}
}

// TestHasDPSSDefaultGroupCapacity pins the secret size the commitment
// group allows: the production group's q is 256 bits, so a key of up to 31 bytes
// round-trips and a 32-byte one is refused with the capacity named.
func TestHasDPSSDefaultGroupCapacity(t *testing.T) {
	c := cluster.New(8, nil)
	h, err := NewHasDPSS(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{0xA5}, 31)
	ref, err := h.Store("k31", key, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Retrieve(ref); err != nil || !bytes.Equal(got, key) {
		t.Fatalf("31-byte key did not round-trip: %v", err)
	}
	_, err = h.Store("k32", make([]byte, 32), rand.Reader)
	if err == nil || !strings.Contains(err.Error(), "1..31 bytes") {
		t.Fatalf("32-byte key on the default group: %v, want a refusal naming the 31-byte capacity", err)
	}
}

func TestLINCOSIntegrityChain(t *testing.T) {
	c := cluster.New(8, nil)
	lin, err := NewLINCOS(c, 6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := lin.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	chain := lin.Chain("obj")
	if chain == nil || chain.Len() != 1 {
		t.Fatal("no timestamp chain created")
	}
	if err := lin.Renew(ref, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if chain.Len() != 2 {
		t.Fatalf("chain length %d after renew, want 2", chain.Len())
	}
	if err := chain.Verify(100, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPASISModeOverheads(t *testing.T) {
	c := cluster.New(8, nil)
	rep, _ := NewPASIS(c, PASISReplication, 4, 1)
	if rep.ModeOverhead() != 4 {
		t.Fatalf("replication overhead %v", rep.ModeOverhead())
	}
	ec, _ := NewPASIS(c, PASISErasure, 6, 4)
	if ec.ModeOverhead() != 1.5 {
		t.Fatalf("erasure overhead %v", ec.ModeOverhead())
	}
	ss, _ := NewPASIS(c, PASISSecretShare, 6, 3)
	if ss.ModeOverhead() != 6 {
		t.Fatalf("sharing overhead %v", ss.ModeOverhead())
	}
}

func TestPASISAllModesRoundTrip(t *testing.T) {
	for _, mode := range []PASISMode{PASISReplication, PASISErasure, PASISEncryptEC, PASISSecretShare} {
		c := cluster.New(8, nil)
		p, err := NewPASIS(c, mode, 6, 3)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		ref, err := p.Store("obj", payload, rand.Reader)
		if err != nil {
			t.Fatalf("%s store: %v", mode, err)
		}
		got, err := p.Retrieve(ref)
		if err != nil {
			t.Fatalf("%s retrieve: %v", mode, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: mismatch", mode)
		}
	}
}

func TestTooFewNodesRejected(t *testing.T) {
	c := cluster.New(3, nil)
	if _, err := NewPOTSHARDS(c, 6, 3); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("potshards: %v", err)
	}
	if _, err := NewCloudAES(c, 4, 2); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("cloud: %v", err)
	}
}
