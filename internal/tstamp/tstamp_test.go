package tstamp

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"testing"

	"securearchive/internal/group"
	"securearchive/internal/sig"
)

var doc = []byte("an archival record that must remain provably intact for a century")

func newHashChain(t *testing.T) *Chain {
	t.Helper()
	c, err := NewFromDigest(sha256.Sum256(doc), RefHash, sig.Ed25519, 0, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainCreateAndVerify(t *testing.T) {
	c := newHashChain(t)
	if err := c.Verify(10, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyData(doc); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyData([]byte("different")); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("wrong data accepted: %v", err)
	}
}

// TestHashVerifyOpeningChecksLinkZero: a hash chain has no opening, so
// the evidence-path check is that link 0 still signs the reference. A
// read compares a digest with the reference and cannot tell a changed
// reference from changed data; this check can.
func TestHashVerifyOpeningChecksLinkZero(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 1, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyOpening(); err != nil {
		t.Fatal(err)
	}
	ref := c.Links[0].Ref
	ref[3] ^= 1
	if err := c.VerifyOpening(); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("VerifyOpening over a changed reference: %v", err)
	}
	ref[3] ^= 1
	if err := c.VerifyOpening(); err != nil {
		t.Fatalf("VerifyOpening after restoring the reference: %v", err)
	}
}

func TestRenewalRotatesSchemes(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 100, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(sig.RSAPSS2048, 200, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("chain length %d, want 3", c.Len())
	}
	if err := c.Verify(300, nil); err != nil {
		t.Fatal(err)
	}
	if head := c.Links[len(c.Links)-1]; head.Scheme != sig.RSAPSS2048 {
		t.Fatalf("head scheme %s", head.Scheme)
	}
}

// TestBreakAfterRenewalIsHarmless: Ed25519 breaks at epoch 150, but the
// chain was renewed with ECDSA at epoch 100 — integrity survives (E7's
// positive case).
func TestBreakAfterRenewalIsHarmless(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 100, rand.Reader); err != nil {
		t.Fatal(err)
	}
	breaks := sig.BreakSchedule{sig.Ed25519: 150}
	if err := c.Verify(1000, breaks); err != nil {
		t.Fatalf("break after renewal must be harmless: %v", err)
	}
}

// TestBreakBeforeRenewalFails: Ed25519 breaks at epoch 50, renewal only
// happened at 100 — the guarantee is void (E7's negative case).
func TestBreakBeforeRenewalFails(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 100, rand.Reader); err != nil {
		t.Fatal(err)
	}
	breaks := sig.BreakSchedule{sig.Ed25519: 50}
	if err := c.Verify(1000, breaks); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("late renewal not detected: %v", err)
	}
}

// TestUnrenewedChainDiesWithItsScheme: a chain never renewed fails once
// its only scheme breaks before `now`.
func TestUnrenewedChainDiesWithItsScheme(t *testing.T) {
	c := newHashChain(t)
	breaks := sig.BreakSchedule{sig.Ed25519: 500}
	if err := c.Verify(499, breaks); err != nil {
		t.Fatalf("valid before break: %v", err)
	}
	if err := c.Verify(500, breaks); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("chain should die at break epoch: %v", err)
	}
}

func TestTamperedLinkDetected(t *testing.T) {
	c := newHashChain(t)
	c.Renew(sig.ECDSAP256, 10, rand.Reader)
	c.Links[0].Epoch = 5 // tamper with a signed field
	err := c.Verify(20, nil)
	if err == nil {
		t.Fatal("tampered link accepted")
	}
	if !errors.Is(err, ErrBrokenLink) && !errors.Is(err, ErrChainGap) {
		t.Fatalf("unexpected error class: %v", err)
	}
}

func TestChainGapDetected(t *testing.T) {
	c := newHashChain(t)
	c.Renew(sig.ECDSAP256, 10, rand.Reader)
	c.Links[1].PrevHash[0] ^= 1
	err := c.Verify(20, nil)
	if err == nil {
		t.Fatal("gap accepted")
	}
}

func TestEpochMonotonicity(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 10, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(sig.RSAPSS2048, 5, rand.Reader); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("regressing epoch accepted: %v", err)
	}
}

func TestCommitmentModeHidesAndVerifies(t *testing.T) {
	c, err := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, group.Test(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(10, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyData(doc); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyData([]byte("not the doc")); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("wrong data accepted in commitment mode: %v", err)
	}
	// The public reference must NOT be the SHA-256 of the document (that
	// is the LINCOS point — no digest leaks).
	d := sha256.Sum256(doc)
	if string(c.Links[0].Ref) == string(d[:]) {
		t.Fatal("commitment mode leaked the plain digest")
	}
}

func TestCommitmentChainsAreUnlinkable(t *testing.T) {
	c1, _ := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, group.Test(), rand.Reader)
	c2, _ := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, group.Test(), rand.Reader)
	if string(c1.Links[0].Ref) == string(c2.Links[0].Ref) {
		t.Fatal("two commitments to the same document are equal: not hiding")
	}
}

func TestEmptyChainErrors(t *testing.T) {
	var c Chain
	if err := c.Verify(0, nil); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("verify empty: %v", err)
	}
	if err := c.Renew(sig.Ed25519, 0, rand.Reader); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("renew empty: %v", err)
	}
	if len(c.Links) != 0 {
		t.Fatal("empty chain has links")
	}
}

func TestLongRotationSchedule(t *testing.T) {
	// A century of renewals across all three schemes, each scheme breaking
	// shortly AFTER its last use: the chain must stay valid throughout.
	c := newHashChain(t)
	schemes := []sig.Scheme{sig.ECDSAP256, sig.RSAPSS2048, sig.Ed25519}
	for k := 0; k < 12; k++ {
		if err := c.Renew(schemes[k%3], (k+1)*10, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	breaks := sig.BreakSchedule{} // nothing broken: sanity
	if err := c.Verify(130, breaks); err != nil {
		t.Fatal(err)
	}
	// Now break ed25519 at epoch 125; its last use is the epoch-120 link,
	// which is the head — head horizon is `now`=130 > 125 → invalid.
	breaks = sig.BreakSchedule{sig.Ed25519: 125}
	if err := c.Verify(130, breaks); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("head scheme break not detected: %v", err)
	}
	// Renew with a surviving scheme before the break bites: valid again.
	if err := c.Renew(sig.ECDSAP256, 124, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(130, breaks); err != nil {
		t.Fatalf("post-renewal chain invalid: %v", err)
	}
}

func BenchmarkRenewEd25519(b *testing.B) {
	c, _ := NewFromDigest(sha256.Sum256(doc), RefHash, sig.Ed25519, 0, nil, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Renew(sig.Ed25519, i+1, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyChain10Links(b *testing.B) {
	c, _ := NewFromDigest(sha256.Sum256(doc), RefHash, sig.Ed25519, 0, nil, rand.Reader)
	for k := 0; k < 9; k++ {
		c.Renew(sig.Ed25519, k+1, rand.Reader)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Verify(100, nil); err != nil {
			b.Fatal(err)
		}
	}
}
