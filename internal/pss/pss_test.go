package pss

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"securearchive/internal/shamir"
)

func TestDataCommitteeReconstruct(t *testing.T) {
	secret := []byte("proactively protected archival object")
	c, err := NewDataCommittee(secret, 8, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Reconstruct(0, 2, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("reconstruction mismatch")
	}
	if _, err := c.Reconstruct(0, 1); !errors.Is(err, ErrTooFewHolders) {
		t.Fatalf("too few holders: %v", err)
	}
	if _, err := c.Reconstruct(0, 1, 2, 99); !errors.Is(err, ErrWrongCommittee) {
		t.Fatalf("bad index: %v", err)
	}
}

func TestRenewPreservesSecret(t *testing.T) {
	secret := []byte("the secret must survive refresh")
	c, err := NewDataCommittee(secret, 6, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if err := c.Renew(rand.Reader); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := c.Reconstruct(1, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("round %d: secret changed", round)
		}
	}
	if c.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", c.Epoch)
	}
}

func TestRenewChangesShares(t *testing.T) {
	secret := []byte("shares must be re-randomised")
	c, _ := NewDataCommittee(secret, 5, 3, rand.Reader)
	before := make([][]byte, c.N)
	for i := range c.Shares {
		before[i] = append([]byte(nil), c.Shares[i].Payload...)
	}
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range c.Shares {
		if !bytes.Equal(before[i], c.Shares[i].Payload) {
			changed++
		}
	}
	if changed != c.N {
		t.Fatalf("only %d/%d shares changed", changed, c.N)
	}
}

// TestStolenSharesUselessAfterRenew is the mobile-adversary experiment in
// miniature: t-1 shares stolen before a renewal plus t-1 stolen after do
// NOT combine to reconstruct, because they lie on different polynomials.
func TestStolenSharesUselessAfterRenew(t *testing.T) {
	secret := []byte("harvested shares go stale")
	c, _ := NewDataCommittee(secret, 6, 3, rand.Reader)
	stolenEarly := []shamir.Share{c.Shares[0].Clone(), c.Shares[1].Clone()} // t-1 shares
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	stolenLate := c.Shares[2].Clone() // 1 more share, different epoch
	mixed := []shamir.Share{stolenEarly[0], stolenEarly[1], stolenLate}
	got, err := shamir.Combine(mixed)
	if err == nil && bytes.Equal(got, secret) {
		t.Fatal("cross-epoch shares reconstructed the secret: renewal is broken")
	}
	// Whereas 3 same-epoch shares do reconstruct.
	got2, err := c.Reconstruct(2, 3, 4)
	if err != nil || !bytes.Equal(got2, secret) {
		t.Fatal("same-epoch reconstruction failed")
	}
}

func TestVerifyDealingDetectsSubstitution(t *testing.T) {
	c, _ := NewDataCommittee([]byte("x"), 4, 2, rand.Reader)
	dl, err := c.deal(0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDealingFor(dl, 1); err != nil {
		t.Fatalf("honest dealing rejected: %v", err)
	}
	dl.SubShares[1].Payload[0] ^= 1
	if err := VerifyDealingFor(dl, 1); !errors.Is(err, ErrCommitMismatch) {
		t.Fatalf("substituted subshare accepted: %v", err)
	}
	if err := VerifyDealingFor(dl, 99); !errors.Is(err, ErrWrongCommittee) {
		t.Fatalf("bad index: %v", err)
	}
}

// TestAuditDealing opens every subshare of an honest renewal dealing:
// they must interpolate to a zero secret of the committee's length.
func TestAuditDealing(t *testing.T) {
	c, _ := NewDataCommittee([]byte("audit me"), 5, 3, rand.Reader)
	dl, _ := c.deal(2, rand.Reader)
	val, err := shamir.Combine(dl.SubShares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(val, make([]byte, c.SecretLen)) {
		t.Fatalf("honest dealing shares %x, want %d zero bytes", val, c.SecretLen)
	}
}

func TestRedistributeGrowCommittee(t *testing.T) {
	secret := []byte("grow from (3,5) to (5,9)")
	c, _ := NewDataCommittee(secret, 5, 3, rand.Reader)
	c2, err := c.Redistribute(9, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if c2.N != 9 || c2.T != 5 {
		t.Fatalf("new committee is (%d,%d)", c2.T, c2.N)
	}
	got, err := c2.Reconstruct(0, 2, 4, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("secret lost in redistribution")
	}
}

func TestRedistributeShrinkCommittee(t *testing.T) {
	secret := []byte("shrink from (4,8) to (2,3)")
	c, _ := NewDataCommittee(secret, 8, 4, rand.Reader)
	c2, err := c.Redistribute(3, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Reconstruct(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("secret lost in shrink")
	}
}

func TestRedistributeInvalidatesOldShares(t *testing.T) {
	secret := []byte("old committee is dead")
	c, _ := NewDataCommittee(secret, 5, 3, rand.Reader)
	old := []shamir.Share{c.Shares[0].Clone(), c.Shares[1].Clone(), c.Shares[2].Clone()}
	_ = old
	if _, err := c.Redistribute(5, 3, rand.Reader); err != nil {
		t.Fatal(err)
	}
	for i := range c.Shares {
		for _, b := range c.Shares[i].Payload {
			if b != 0 {
				t.Fatal("old share not zeroed after redistribution")
			}
		}
	}
}

func TestRedistributeParamValidation(t *testing.T) {
	c, _ := NewDataCommittee([]byte("x"), 4, 2, rand.Reader)
	if _, err := c.Redistribute(3, 4, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("t>n: %v", err)
	}
	if _, err := c.Redistribute(0, 0, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("zero: %v", err)
	}
}

func TestCommStatsAccounting(t *testing.T) {
	const n, L = 6, 100
	secret := make([]byte, L)
	c, _ := NewDataCommittee(secret, n, 3, rand.Reader)
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Rounds != 1 {
		t.Fatalf("rounds = %d", c.Stats.Rounds)
	}
	wantMsgs := n * (n - 1)
	if c.Stats.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d", c.Stats.Messages, wantMsgs)
	}
	wantBytes := int64(n * (n - 1) * (L + 2))
	if c.Stats.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", c.Stats.Bytes, wantBytes)
	}
	if got := RenewalTraffic(n, L); got != wantBytes+int64(n*n*32) {
		t.Fatalf("RenewalTraffic = %d, want %d", got, wantBytes+int64(n*n*32))
	}
}

func TestRenewalTrafficQuadratic(t *testing.T) {
	// Doubling n should roughly quadruple traffic (Θ(n²) claim, E6).
	t8 := RenewalTraffic(8, 4096)
	t16 := RenewalTraffic(16, 4096)
	ratio := float64(t16) / float64(t8)
	if ratio < 3.5 || ratio > 4.6 {
		t.Fatalf("traffic ratio for n 8→16 is %.2f, want ≈4", ratio)
	}
}

func BenchmarkRenew8_4KiB(b *testing.B) {
	secret := make([]byte, 4096)
	c, _ := NewDataCommittee(secret, 8, 4, rand.Reader)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Renew(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRedistribute8to12_4KiB(b *testing.B) {
	secret := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, _ := NewDataCommittee(secret, 8, 4, rand.Reader)
		b.StartTimer()
		if _, err := c.Redistribute(12, 6, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
