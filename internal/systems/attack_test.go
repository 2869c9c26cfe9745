package systems

import (
	"bytes"
	"crypto/rand"
	"testing"

	"securearchive/internal/adversary"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/group"
)

// harvestAll corrupts every node over successive epochs with the given
// per-epoch budget, advancing the cluster clock. It models the patient
// mobile adversary sweeping the whole fleet.
func harvestAll(c *cluster.Cluster, adv *adversary.Mobile, epochs int) {
	for e := 0; e < epochs; e++ {
		adv.CorruptRandom(c)
		c.AdvanceEpoch()
	}
}

// allBroken is the far-future doomsday: every computational primitive has
// fallen (epoch 100).
var allBroken = adversary.Breaks{
	Ciphers: map[cascade.Scheme]int{
		cascade.AES256CTR: 100, cascade.ChaCha20: 100, cascade.SHA256CTR: 100,
	},
	HashBroken: 100,
}

// TestHNDLDoomsdayOutcomes is experiment E4: harvest everything at epoch
// 0-9 (no renewals), then break all computational crypto at epoch 100.
// Every computationally protected system falls retroactively; every
// information-theoretic system holds.
func TestHNDLDoomsdayOutcomes(t *testing.T) {
	systems, c := allSystems(t)
	refs := map[string]*Ref{}
	for name, sys := range systems {
		ref, err := sys.Store("hndl-"+name, dataFor(name), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	adv := adversary.NewMobile(2, 77)
	harvestAll(c, adv, 12) // enough epochs to sweep all 8 nodes

	// At harvest time (epoch < 100) nothing computational is broken yet:
	// the computational systems must NOT be breached except those whose
	// threshold was met by raw shard count.
	now := c.Epoch()
	if got := systems["cloud"].Breach(adv, refs["cloud"], allBroken, now); got.Violated {
		t.Fatalf("cloud breached before the break epoch: %s", got.Reason)
	}

	// Fast-forward to the doomsday epoch.
	const doomsday = 100

	// Computational systems fall.
	for _, name := range []string{"cloud", "archivesafe"} {
		res := systems[name].Breach(adv, refs[name], allBroken, doomsday)
		if !res.Violated || !res.Full {
			t.Fatalf("%s survived doomsday: %+v", name, res)
		}
		if !bytes.Equal(res.Recovered, dataFor(name)) {
			t.Fatalf("%s: recovered plaintext mismatch", name)
		}
	}
	// AONT-RS falls even EARLIER: the adversary swept all nodes, so it has
	// ≥ k shards and the inverse is public — no break needed.
	res := systems["aontrs"].Breach(adv, refs["aontrs"], adversary.Breaks{}, now)
	if !res.Full {
		t.Fatalf("aontrs with full harvest should fall without breaks: %+v", res)
	}

	// POTSHARDS (static ITS shares): the full sweep accumulated a
	// threshold across epochs — the mobile-adversary drawback, not a
	// crypto break.
	res = systems["potshards"].Breach(adv, refs["potshards"], adversary.Breaks{}, doomsday)
	if !res.Full {
		t.Fatalf("potshards should fall to the patient mobile adversary: %+v", res)
	}

	// The renewing ITS systems hold — NO renewals ran here, so they
	// actually fall too (shares static across the sweep). This documents
	// that ITS-at-rest without refresh is not enough.
	res = systems["vsr"].Breach(adv, refs["vsr"], allBroken, doomsday)
	if !res.Full {
		t.Fatalf("vsr without renewals should fall like potshards: %+v", res)
	}
}

// TestRenewalDefeatsMobileAdversary is experiment E5: identical sweep,
// but the victim renews between adversary strikes. The renewing systems
// survive; POTSHARDS (no renewal) falls.
func TestRenewalDefeatsMobileAdversary(t *testing.T) {
	systems, c := allSystems(t)
	vsr := systems["vsr"].(*VSRArchive)
	pot := systems["potshards"].(*POTSHARDS)
	lin := systems["lincos"].(*LINCOS)

	vsrRef, err := vsr.Store("obj-vsr", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	potRef, err := pot.Store("obj-pot", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	linRef, err := lin.Store("obj-lin", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	// Budget 1 per epoch vs threshold 3, renewal every epoch: the
	// adversary can never hold 3 same-epoch shares.
	adv := adversary.NewMobile(1, 13)
	for e := 0; e < 20; e++ {
		adv.CorruptRandom(c)
		c.AdvanceEpoch()
		if err := vsr.Renew(vsrRef, rand.Reader); err != nil {
			t.Fatal(err)
		}
		if err := lin.Renew(linRef, rand.Reader); err != nil {
			t.Fatal(err)
		}
		// POTSHARDS cannot renew.
	}

	if res := vsr.Breach(adv, vsrRef, allBroken, 1000); res.Violated {
		t.Fatalf("VSR with per-epoch renewal breached: %s", res.Reason)
	}
	if res := lin.Breach(adv, linRef, allBroken, 1000); res.Violated {
		t.Fatalf("LINCOS with per-epoch renewal breached: %s", res.Reason)
	}
	res := pot.Breach(adv, potRef, allBroken, 1000)
	if !res.Full || !bytes.Equal(res.Recovered, payload) {
		t.Fatalf("POTSHARDS should fall to the 20-epoch sweep: %+v", res)
	}

	// And the renewing archives still serve reads.
	got, err := vsr.Retrieve(vsrRef)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("VSR unreadable after 20 renewals: %v", err)
	}
}

// TestRenewalRaceLost: if the adversary's budget reaches the threshold
// within one epoch, renewal cannot save the sharing — the paper's point
// that the corruption threshold is a hard assumption.
func TestRenewalRaceLost(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, _ := NewVSRArchive(c, 6, 3)
	ref, err := vsr.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewMobile(3, 5) // budget == threshold
	adv.Corrupt(c, 0)
	adv.Corrupt(c, 1)
	adv.Corrupt(c, 2)
	res := vsr.Breach(adv, ref, adversary.Breaks{}, 50)
	if !res.Full || !bytes.Equal(res.Recovered, payload) {
		t.Fatalf("threshold-budget adversary should win instantly: %+v", res)
	}
}

// TestCascadePartialBreakHolds: with only 2 of 3 families broken,
// ArchiveSafeLT holds even under full harvest — the combiner property
// end-to-end.
func TestCascadePartialBreakHolds(t *testing.T) {
	c := cluster.New(8, nil)
	asl, _ := NewArchiveSafeLT(c, nil, 4, 2)
	ref, err := asl.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewMobile(8, 9)
	adv.CorruptRandom(c)
	partial := adversary.Breaks{Ciphers: map[cascade.Scheme]int{
		cascade.AES256CTR: 10, cascade.ChaCha20: 10,
	}}
	if res := asl.Breach(adv, ref, partial, 100); res.Violated {
		t.Fatalf("cascade fell with one family surviving: %s", res.Reason)
	}
}

// TestAONTSingleShardLeakUnderBreak: below-threshold harvest + AES break
// → partial violation (the §3.2 "knows the key" caveat).
func TestAONTSingleShardLeakUnderBreak(t *testing.T) {
	c := cluster.New(8, nil)
	ars, _ := NewAONTRS(c, 4, 6)
	ref, err := ars.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewMobile(1, 3)
	adv.Corrupt(c, 0) // one shard only
	unbroken := ars.Breach(adv, ref, adversary.Breaks{}, 50)
	if unbroken.Violated {
		t.Fatalf("single shard with unbroken crypto leaked: %s", unbroken.Reason)
	}
	broken := ars.Breach(adv, ref, adversary.Breaks{Ciphers: map[cascade.Scheme]int{cascade.AES256CTR: 10}}, 50)
	if !broken.Violated || broken.Full {
		t.Fatalf("expected partial violation: %+v", broken)
	}
}

// TestHasDPSSRenewalDefeatsHarvest mirrors E5 for the key-management
// system: scalar shares from different epochs cannot be combined.
func TestHasDPSSRenewalDefeatsHarvest(t *testing.T) {
	c := cluster.New(8, nil)
	h, _ := NewHasDPSS(c, 6, 3, group.Test())
	key := []byte("a 28-byte master key secret!")
	ref, err := h.Store("k", key, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.NewMobile(1, 21)
	for e := 0; e < 12; e++ {
		adv.CorruptRandom(c)
		c.AdvanceEpoch()
		if err := h.Renew(ref, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if res := h.Breach(adv, ref, allBroken, 1000); res.Violated {
		t.Fatalf("HasDPSS with renewal breached: %s", res.Reason)
	}
	// Sanity: without renewal the same sweep wins.
	c2 := cluster.New(8, nil)
	h2, _ := NewHasDPSS(c2, 6, 3, group.Test())
	ref2, _ := h2.Store("k", key, rand.Reader)
	adv2 := adversary.NewMobile(1, 22)
	for e := 0; e < 12; e++ {
		adv2.CorruptRandom(c2)
		c2.AdvanceEpoch()
	}
	res := h2.Breach(adv2, ref2, allBroken, 1000)
	if !res.Full || !bytes.Equal(res.Recovered, key) {
		t.Fatalf("static HasDPSS shares should fall: %+v", res)
	}
}

// TestBreachChunkedObject: a vault object over one chunk is several
// chunk stripes on every node. A full harvest must recover exactly the
// object — chunk by chunk for POTSHARDS' shares, one replica's chunks
// in order for PASIS replication — and two nodes' worth of POTSHARDS
// shares, below its threshold of 3, must leak nothing. POTSHARDS'
// RetrieveRobust, which reads past the vault, must read every chunk too.
func TestBreachChunkedObject(t *testing.T) {
	obj := make([]byte, 1<<20+100<<10)
	rand.Read(obj)
	c := cluster.New(8, nil)
	pot, err := NewPOTSHARDS(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewPASIS(c, PASISReplication, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	potRef, err := pot.Store("pot", obj, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	repRef, err := rep.Store("rep", obj, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	if got, err := pot.RetrieveRobust(potRef, 1); err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("RetrieveRobust: %d bytes, %v; want the %d-byte object", len(got), err, len(obj))
	}

	two := adversary.NewMobile(2, 1)
	two.Corrupt(c, 0)
	two.Corrupt(c, 1)
	if res := pot.Breach(two, potRef, adversary.Breaks{}, 0); res.Violated {
		t.Fatalf("POTSHARDS breached from 2 of 3 shares: %s", res.Reason)
	}

	all := adversary.NewMobile(c.Size(), 1)
	for i := 0; i < c.Size(); i++ {
		all.Corrupt(c, i)
	}
	for name, res := range map[string]BreachResult{
		"POTSHARDS":         pot.Breach(all, potRef, adversary.Breaks{}, 0),
		"PASIS replication": rep.Breach(all, repRef, adversary.Breaks{}, 0),
	} {
		if !res.Full || !bytes.Equal(res.Recovered, obj) {
			t.Errorf("%s: full harvest recovered %d bytes (full=%v), want the %d-byte object: %s",
				name, len(res.Recovered), res.Full, len(obj), res.Reason)
		}
	}
}
