package tstamp

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	"testing"

	"securearchive/internal/group"
	"securearchive/internal/sig"
)

// newUpgraded builds a hash chain over doc, renewed once at epoch 3 with
// ECDSA, and upgrades it at epoch 5.
func newUpgraded(t testing.TB, grp *group.Group) (*Chain, [sha256.Size]byte) {
	t.Helper()
	digest := sha256.Sum256(doc)
	old, err := NewFromDigest(digest, RefHash, sig.Ed25519, 0, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Renew(sig.ECDSAP256, 3, rand.Reader); err != nil {
		t.Fatal(err)
	}
	c, err := old.Upgrade(digest, 5, grp, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return c, digest
}

// TestUpgradeCommitsToThePrior: the upgraded chain is one commitment
// link, signed with the prior head's scheme, whose Ref is neither the
// digest nor a commitment to its first committedBytes; it accepts the
// digest and nothing else, re-opens, renews, and marshals without the
// prior. The prior is left as it was.
func TestUpgradeCommitsToThePrior(t *testing.T) {
	c, digest := newUpgraded(t, group.Default())
	old := c.Prior
	if c.Mode != RefCommitment || c.Len() != 1 || c.Links[0].Mode != RefCommitment || old == nil || old.Len() != 2 {
		t.Fatalf("mode %d, %d links, prior %v", c.Mode, c.Len(), old != nil)
	}
	if c.Links[0].Scheme != sig.ECDSAP256 || c.Links[0].Epoch != 5 || c.Links[0].PrevHash != ([sha256.Size]byte{}) {
		t.Fatalf("upgrade link: scheme %s epoch %d prev %x", c.Links[0].Scheme, c.Links[0].Epoch, c.Links[0].PrevHash)
	}
	if bytes.Equal(c.Links[0].Ref, digest[:]) || new(big.Int).SetBytes(digest[:committedBytes]).Cmp(c.Opening.M) == 0 {
		t.Fatal("the upgrade link commits to the digest itself")
	}
	if err := c.VerifyDigest(digest); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyDigest(sha256.Sum256([]byte("a guess"))); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("wrong digest accepted: %v", err)
	}
	if err := c.VerifyOpening(); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(9, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(sig.RSAPSS2048, 7, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyDigest(digest); err != nil {
		t.Fatalf("renewed upgrade: %v", err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, digest[:]) {
		t.Fatal("marshalled upgrade holds the digest")
	}
	rt, err := Unmarshal(blob)
	if err != nil || rt.Prior != nil || rt.Verify(9, nil) != nil {
		t.Fatalf("unmarshalled upgrade: %v, prior %v", err, rt != nil && rt.Prior != nil)
	}
	if old.Mode != RefHash || old.Len() != 2 || old.VerifyDigest(digest) != nil {
		t.Fatal("Upgrade changed the chain it took over from")
	}
}

// TestUpgradeRefusals: Upgrade takes over only from a hash chain that
// vouches for the digest, at an epoch no earlier than its head.
func TestUpgradeRefusals(t *testing.T) {
	digest := sha256.Sum256(doc)
	h, _ := NewFromDigest(digest, RefHash, sig.Ed25519, 4, nil, rand.Reader)
	if _, err := h.Upgrade(sha256.Sum256([]byte("other")), 5, group.Default(), rand.Reader); !errors.Is(err, ErrOpeningFailed) {
		t.Fatalf("upgrade over another digest: %v", err)
	}
	if _, err := h.Upgrade(digest, 3, group.Default(), rand.Reader); !errors.Is(err, ErrEpochOrder) {
		t.Fatalf("upgrade before the prior head: %v", err)
	}
	c, _ := NewFromDigest(digest, RefCommitment, sig.Ed25519, 0, group.Default(), rand.Reader)
	if _, err := c.Upgrade(digest, 5, group.Default(), rand.Reader); err == nil {
		t.Fatal("upgrade of a commitment chain")
	}
}

// TestUpgradeTamperFallsThrough: tampering with the held prior chain or
// with the opening changes what the memo vouches for, so VerifyDigest
// takes the full path, which recomputes the scalar from the digest and
// the prior head and fails. Restoring the value passes again.
func TestUpgradeTamperFallsThrough(t *testing.T) {
	c, digest := newUpgraded(t, group.Default())
	head := c.Prior.Links[len(c.Prior.Links)-1]
	for _, tc := range []struct {
		name   string
		tamper func() (restore func())
	}{
		{"prior head signature", func() func() {
			head.Sig[0] ^= 1
			return func() { head.Sig[0] ^= 1 }
		}},
		{"prior head epoch", func() func() {
			head.Epoch++
			return func() { head.Epoch-- }
		}},
		{"prior head dropped", func() func() {
			links := c.Prior.Links
			c.Prior.Links = links[:1]
			return func() { c.Prior.Links = links }
		}},
		{"prior emptied", func() func() {
			links := c.Prior.Links
			c.Prior.Links = nil
			return func() { c.Prior.Links = links }
		}},
		{"opening R", func() func() {
			r := c.Opening.R
			c.Opening.R = new(big.Int).Add(r, big.NewInt(1))
			return func() { c.Opening.R = r }
		}},
		{"opening M", func() func() {
			m := c.Opening.M
			c.Opening.M = new(big.Int).SetBytes(digest[:committedBytes])
			return func() { c.Opening.M = m }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			restore := tc.tamper()
			if bind, ok := c.binding(); ok && bind == c.memo.bind {
				t.Fatal("the memo still vouches for the tampered chain")
			}
			if err := c.VerifyDigest(digest); !errors.Is(err, ErrOpeningFailed) {
				t.Fatalf("tampered chain accepted: %v", err)
			}
			restore()
			if err := c.VerifyDigest(digest); err != nil {
				t.Fatalf("restored chain rejected: %v", err)
			}
		})
	}
	// The prior is part of Verify too.
	head.Sig[0] ^= 1
	if err := c.Verify(9, nil); !errors.Is(err, ErrBrokenLink) {
		t.Fatalf("Verify over a tampered prior: %v", err)
	}
	head.Sig[0] ^= 1
}

// TestUpgradeHorizon: the prior's links need only have held until the
// upgrade link was signed — a break after it does no damage, a break
// before it does.
func TestUpgradeHorizon(t *testing.T) {
	c, _ := newUpgraded(t, group.Default()) // Ed25519 at 0, ECDSA at 3, upgrade at 5
	if err := c.Verify(20, sig.BreakSchedule{sig.Ed25519: 4, sig.ECDSAP256: 6}); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("ECDSA broke at 6, after the upgrade, but its own link is the head at 20: %v", err)
	}
	if err := c.Verify(20, sig.BreakSchedule{sig.Ed25519: 4}); err != nil {
		t.Fatalf("Ed25519 broke after its successor: %v", err)
	}
	if err := c.Verify(20, sig.BreakSchedule{sig.Ed25519: 2}); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("Ed25519 broke before its successor: %v", err)
	}
	if err := c.Renew(sig.RSAPSS2048, 6, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// ECDSA signed the prior head and the upgrade link; the RSA renewal
	// at 6 covers both, so an ECDSA break at 7 is harmless.
	if err := c.Verify(20, sig.BreakSchedule{sig.Ed25519: 4, sig.ECDSAP256: 7}); err != nil {
		t.Fatalf("ECDSA broke after the renewal: %v", err)
	}
	if err := c.Verify(20, sig.BreakSchedule{sig.ECDSAP256: 5}); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("ECDSA broke at the upgrade epoch: %v", err)
	}
}

// TestUpgradedVerifyDigestZeroAllocs is TestVerifyDigestZeroAllocs for
// an upgraded chain on the production group: the memoised check, which
// also hashes the prior's head link, allocates nothing, so it ran no
// exponentiation.
func TestUpgradedVerifyDigestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c, digest := newUpgraded(t, group.Default())
	var verr error
	if n := testing.AllocsPerRun(200, func() { verr = c.VerifyDigest(digest) }); n != 0 || verr != nil {
		t.Fatalf("memoised VerifyDigest of an upgraded chain: %.0f allocs/op (err %v), want 0", n, verr)
	}
}
