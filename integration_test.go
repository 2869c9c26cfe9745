// Integration tests exercising whole-archive lifecycles across modules:
// the "century simulation" that strings together epochs, renewals,
// signature rotation, node failures and repairs, cryptanalytic breaks,
// and the adversary — the scenario the paper's abstract describes.
package securearchive_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"testing"

	"securearchive/internal/adversary"
	"securearchive/internal/bsm"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/otp"
	"securearchive/internal/qkd"
	"securearchive/internal/sig"
	"securearchive/internal/systems"
)

// TestCenturySimulation runs a VSR-style archive through 100 simulated
// years (1 epoch = 1 year): yearly share renewal, signature rotation
// every 20 years, a node failure + repair every decade, a mobile
// adversary stealing one node per year, and a total cryptanalytic
// collapse at year 40. At year 100 the data must still be retrievable,
// its integrity chain valid, and the adversary empty-handed.
func TestCenturySimulation(t *testing.T) {
	c := cluster.New(8, nil)
	archive, err := systems.NewVSRArchive(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	lincos, err := systems.NewLINCOS(c, 6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}

	record := []byte("born 2026: sealed until 2126 — the paper's opening premise")
	ref, err := archive.Store("century", record, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sealedRef, err := lincos.Store("century-sealed", record, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	adv := adversary.NewMobile(1, 2126)
	breaks := adversary.Breaks{
		Ciphers: map[cascade.Scheme]int{
			cascade.AES256CTR: 40, cascade.ChaCha20: 40, cascade.SHA256CTR: 40,
		},
		// Ed25519 (the launch scheme, rotated away at year 1) breaks at
		// year 40. The schemes still in the yearly rotation must outlive
		// the simulation: the tstamp semantics are strict — a break at
		// epoch e voids any link whose renewal horizon is e — so an
		// archive must stop USING a scheme before it breaks, not merely
		// keep renewing past it (tested separately in internal/tstamp).
		Signatures: sig.BreakSchedule{sig.Ed25519: 40},
		HashBroken: 40,
	}
	rng := mrand.New(mrand.NewSource(1))

	for year := 1; year <= 100; year++ {
		c.AdvanceEpoch()
		adv.CorruptRandom(c)

		// Yearly share refresh.
		if err := archive.Renew(ref, rand.Reader); err != nil {
			t.Fatalf("year %d renew: %v", year, err)
		}
		if err := lincos.Renew(sealedRef, rand.Reader); err != nil {
			t.Fatalf("year %d lincos renew: %v", year, err)
		}

		// Decennial disaster: one node wiped, then repaired.
		if year%10 == 0 {
			victim := rng.Intn(6)
			if err := c.Delete(victim, cluster.ShardKey{Object: "century", Index: victim}); err != nil {
				t.Fatal(err)
			}
			if err := archive.Repair(ref, victim, rand.Reader); err != nil {
				t.Fatalf("year %d repair node %d: %v", year, victim, err)
			}
		}

		// Spot-check the adversary is making no progress.
		if year%25 == 0 {
			if res := archive.Breach(adv, ref, breaks, year); res.Violated {
				t.Fatalf("year %d: archive breached: %s", year, res.Reason)
			}
		}
	}

	// Year 100: the record is intact and retrievable.
	got, err := archive.Retrieve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, record) {
		t.Fatal("record corrupted over the century")
	}
	// The sealed copy's 101-link chain verifies despite the year-40
	// Ed25519 break (its successor link predates the break) and the
	// year-80 ECDSA break (rotation alternates ECDSA/RSA yearly, so every
	// ECDSA link has an RSA successor within a year).
	chain := lincos.Chain("century-sealed")
	if chain.Len() != 101 {
		t.Fatalf("chain has %d links, want 101", chain.Len())
	}
	if err := chain.Verify(100, breaks.Signatures); err != nil {
		t.Fatalf("century chain invalid: %v", err)
	}
	// The adversary harvested every shard many times over, and holds
	// nothing usable.
	if got := adv.MaxAnyEpochShards("century"); got != 6 {
		t.Fatalf("adversary holds %d/6 shard indices", got)
	}
	if res := archive.Breach(adv, ref, breaks, 100); res.Violated {
		t.Fatalf("archive breached at year 100: %s", res.Reason)
	}
	for epoch, byIdx := range adv.DistinctShards("century") {
		if len(byIdx) >= 3 {
			t.Fatalf("adversary accumulated %d shares written in epoch %d", len(byIdx), epoch)
		}
	}
}

// TestVaultLifecycleAllEncodings runs the full vault path (put, failure,
// integrity rotation, share refresh, get) under every Figure 1 encoding.
func TestVaultLifecycleAllEncodings(t *testing.T) {
	cfg := core.Figure1Config{N: 8, K: 4, T: 4, PackCount: 3, ObjectLen: 4096}
	data := make([]byte, cfg.ObjectLen)
	rand.Read(data)
	for _, enc := range core.Figure1Encodings(cfg) {
		enc := enc
		t.Run(enc.Name(), func(t *testing.T) {
			c := cluster.New(8, nil)
			v, err := core.NewVault(c, enc)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Put(context.Background(), "obj", data); err != nil {
				t.Fatal(err)
			}
			c.AdvanceEpoch()
			if err := v.RenewIntegrity(context.Background(), "obj", sig.ECDSAP256); err != nil {
				t.Fatal(err)
			}
			if err := v.RenewShares(context.Background(), "obj"); err != nil {
				t.Fatal(err)
			}
			// Knock out exactly the tolerated number of nodes.
			n, min := enc.Shards()
			for i := min; i < n; i++ {
				c.SetOnline(i, false)
			}
			got, err := v.Get(context.Background(), "obj")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("mismatch")
			}
		})
	}
}

// TestQKDFedOTPTransfer wires two substrates end to end: a BB84 session
// produces key material that an OTP pad consumes to move a message with
// information-theoretic transit secrecy — LINCOS's transport, standalone.
func TestQKDFedOTPTransfer(t *testing.T) {
	res, err := qkd.Run(qkd.Params{
		Photons: 16384, NoiseRate: 0.01, SampleFraction: 0.25, AbortQBER: 0.11,
	}, 77)
	if err != nil {
		t.Fatal(err)
	}
	sender := otp.NewPad(append([]byte(nil), res.Key...))
	receiver := otp.NewPad(append([]byte(nil), res.Key...))
	msg := []byte("share 3 of object 9")
	if len(msg) > sender.Remaining() {
		t.Fatalf("QKD session yielded %d bytes, need %d", sender.Remaining(), len(msg))
	}
	ct, err := sender.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("QKD-keyed OTP transfer failed")
	}
}

// TestBSMFedOTPTransfer does the same with the Bounded Storage Model —
// the paper's §4 alternative channel.
func TestBSMFedOTPTransfer(t *testing.T) {
	res, err := bsm.Exchange(bsm.Params{
		StreamBytes: 1 << 18, SampleBytes: 512,
		AdversaryFraction: 0.5, KeyBytes: 64, EveStrategy: bsm.EveRandom,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Secure {
		t.Fatalf("BSM exchange insecure: fresh=%d", res.FreshEntropyBytes)
	}
	a := otp.NewPad(append([]byte(nil), res.Key...))
	b := otp.NewPad(append([]byte(nil), res.Key...))
	msg := []byte("bounded storage beats unbounded computation, sometimes")
	ct, err := a.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Decrypt(ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("BSM-keyed OTP transfer failed: %v", err)
	}
}

// TestMultiObjectArchiveUnderChurn stores many objects, churns nodes and
// epochs with randomized failures, and verifies every object at the end —
// a property-style soak of the whole stack.
func TestMultiObjectArchiveUnderChurn(t *testing.T) {
	c := cluster.New(8, nil)
	archive, err := systems.NewVSRArchive(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(9))
	type obj struct {
		ref  *systems.Ref
		data []byte
	}
	var objs []obj
	for i := 0; i < 20; i++ {
		data := make([]byte, 100+rng.Intn(2000))
		rand.Read(data)
		ref, err := archive.Store(fmt.Sprintf("obj-%02d", i), data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj{ref, data})
	}
	for round := 0; round < 10; round++ {
		c.AdvanceEpoch()
		// Random transient failures.
		down := rng.Perm(8)[:rng.Intn(3)]
		for _, d := range down {
			c.SetOnline(d, false)
		}
		// Renew a random half of the objects (skip if a member is down —
		// renewal needs all holders; restore first in that case).
		for _, d := range down {
			c.SetOnline(d, true)
		}
		for _, o := range objs {
			if rng.Intn(2) == 0 {
				if err := archive.Renew(o.ref, rand.Reader); err != nil {
					t.Fatalf("round %d renew %s: %v", round, o.ref.Object, err)
				}
			}
		}
	}
	for _, o := range objs {
		got, err := archive.Retrieve(o.ref)
		if err != nil {
			t.Fatalf("%s: %v", o.ref.Object, err)
		}
		if !bytes.Equal(got, o.data) {
			t.Fatalf("%s: corrupted", o.ref.Object)
		}
	}
}
