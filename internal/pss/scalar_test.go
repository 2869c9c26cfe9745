package pss

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"securearchive/internal/group"
	"securearchive/internal/vss"
)

func TestScalarCommitteeRoundTrip(t *testing.T) {
	g := group.Default()
	secret := big.NewInt(918273645)
	c, err := NewScalarCommittee(g, secret, 5, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N; i++ {
		if err := vss.Verify(c.Comms, c.Shares[i]); err != nil {
			t.Fatalf("holder %d: %v", i, err)
		}
	}
	got, err := reconstruct(c, 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("scalar reconstruction mismatch")
	}
}

func TestScalarRenewPreservesSecretAndVerifiability(t *testing.T) {
	g := group.Default()
	secret := big.NewInt(777)
	c, err := NewScalarCommittee(g, secret, 4, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := c.Renew(rand.Reader); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// All shares must still verify against the UPDATED commitments.
		for i := 0; i < c.N; i++ {
			if err := vss.Verify(c.Comms, c.Shares[i]); err != nil {
				t.Fatalf("round %d holder %d: %v", round, i, err)
			}
		}
		got, err := reconstruct(c, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			t.Fatalf("round %d: secret changed", round)
		}
	}
}

func TestScalarRenewChangesSharesAndCommitments(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(5), 3, 2, rand.Reader)
	s0 := new(big.Int).Set(c.Shares[0].S)
	c0 := new(big.Int).Set(c.Comms.C[0])
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if c.Shares[0].S.Cmp(s0) == 0 {
		t.Fatal("share unchanged after renewal")
	}
	if c.Comms.C[0].Cmp(c0) == 0 {
		t.Fatal("commitment unchanged after renewal")
	}
}

func TestScalarStaleShareFailsVerification(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(31337), 4, 2, rand.Reader)
	stolen := c.Shares[0] // adversary's pre-renewal copy
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	// The stale share no longer verifies against the updated commitments:
	// the system can detect and reject a replayed old share.
	if err := vss.Verify(c.Comms, stolen); !errors.Is(err, vss.ErrVerifyFailed) {
		t.Fatalf("stale share still verifies: %v", err)
	}
}

func TestVerifyScalarDealingRejectsNonZero(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(1), 4, 2, rand.Reader)
	dl, err := c.deal(0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyScalarDealing(g, dl, 1); err != nil {
		t.Fatalf("honest dealing rejected: %v", err)
	}
	// A cheating dealer shares a NON-zero secret but keeps the b0 proof.
	shares, comms, err := vss.PedersenSplitWithBlind(g, big.NewInt(999), dl.Zero.B0, 4, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cheat := ScalarDealing{Dealer: 0, SubShares: shares, Comms: comms, Zero: dl.Zero}
	if err := VerifyScalarDealing(g, cheat, 1); !errors.Is(err, ErrNotZeroSharing) {
		t.Fatalf("non-zero dealing accepted: %v", err)
	}
	// A dealer with corrupted subshare fails VSS verification.
	dl2, _ := c.deal(1, rand.Reader)
	dl2.SubShares[2].S = new(big.Int).Add(dl2.SubShares[2].S, big.NewInt(1))
	if err := VerifyScalarDealing(g, dl2, 2); !errors.Is(err, vss.ErrVerifyFailed) {
		t.Fatalf("corrupt subshare accepted: %v", err)
	}
}

func TestScalarReconstructIdentifiesCorruptHolder(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(12345), 4, 2, rand.Reader)
	c.Shares[1].S = new(big.Int).Add(c.Shares[1].S, big.NewInt(1))
	if _, err := reconstruct(c, 0, 1); !errors.Is(err, vss.ErrVerifyFailed) {
		t.Fatalf("corrupt holder not identified: %v", err)
	}
	// Other holders still work.
	got, err := reconstruct(c, 0, 2)
	if err != nil || got.Int64() != 12345 {
		t.Fatalf("honest holders failed: %v %v", got, err)
	}
}

func TestScalarCommitteeStats(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(7), 5, 3, rand.Reader)
	if err := c.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if c.Stats.Messages != 5*4 {
		t.Fatalf("messages = %d, want 20", c.Stats.Messages)
	}
	if c.Stats.Bytes == 0 || c.Stats.Broadcast == 0 || c.Stats.Rounds != 1 {
		t.Fatalf("stats not accumulated: %+v", c.Stats)
	}
}

func TestScalarRedistributeGrow(t *testing.T) {
	g := group.Default()
	secret := big.NewInt(192837465)
	c, err := NewScalarCommittee(g, secret, 5, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Redistribute(9, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if c2.N != 9 || c2.T != 5 {
		t.Fatalf("new committee (%d,%d)", c2.T, c2.N)
	}
	// All new shares verify against the NEW commitment vector.
	for i := 0; i < c2.N; i++ {
		if err := vss.Verify(c2.Comms, c2.Shares[i]); err != nil {
			t.Fatalf("new holder %d: %v", i, err)
		}
	}
	got, err := reconstruct(c2, 0, 2, 4, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("secret lost in scalar redistribution")
	}
}

func TestScalarRedistributeShrink(t *testing.T) {
	g := group.Default()
	secret := big.NewInt(555)
	c, _ := NewScalarCommittee(g, secret, 6, 4, rand.Reader)
	c2, err := c.Redistribute(3, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reconstruct(c2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatal("secret lost in shrink")
	}
}

func TestScalarRedistributeInvalidatesOld(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(7), 4, 2, rand.Reader)
	if _, err := c.Redistribute(4, 2, rand.Reader); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Shares {
		if s.S.Sign() != 0 || s.Blind.Sign() != 0 {
			t.Fatalf("old share %d not zeroised", i)
		}
	}
}

func TestScalarRedistributeThenRenew(t *testing.T) {
	g := group.Default()
	secret := big.NewInt(31415926)
	c, _ := NewScalarCommittee(g, secret, 4, 2, rand.Reader)
	c2, err := c.Redistribute(6, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Renew(rand.Reader); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c2.N; i++ {
		if err := vss.Verify(c2.Comms, c2.Shares[i]); err != nil {
			t.Fatalf("holder %d after redistribute+renew: %v", i, err)
		}
	}
	got, err := reconstruct(c2, 3, 4, 5)
	if err != nil || got.Cmp(secret) != 0 {
		t.Fatalf("reconstruction after redistribute+renew: %v %v", got, err)
	}
}

func TestScalarRedistributeValidation(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(1), 4, 2, rand.Reader)
	if _, err := c.Redistribute(2, 3, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("t>n: %v", err)
	}
}

// TestScalarRedistributeDetectsCheatingDealer: a dealer whose share was
// tampered with (so its sub-dealing no longer matches the committee's
// public commitments) is caught by the external consistency check.
func TestScalarRedistributeDetectsCheatingDealer(t *testing.T) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(99), 4, 2, rand.Reader)
	c.Shares[0].S = new(big.Int).Add(c.Shares[0].S, big.NewInt(1))
	if _, err := c.Redistribute(4, 2, rand.Reader); err == nil {
		t.Fatal("tampered dealer share passed redistribution")
	}
}

// reconstruct verifies the given holders' shares against the committee's
// commitments, so a corrupt holder is named, then combines them.
func reconstruct(c *ScalarCommittee, holders ...int) (*big.Int, error) {
	sel := make([]vss.Share, 0, len(holders))
	for _, h := range holders {
		if err := vss.Verify(c.Comms, c.Shares[h]); err != nil {
			return nil, fmt.Errorf("holder %d: %w", h, err)
		}
		sel = append(sel, c.Shares[h])
	}
	return vss.Combine(c.G, sel, c.T)
}

func BenchmarkScalarRenew5of3(b *testing.B) {
	g := group.Default()
	c, _ := NewScalarCommittee(g, big.NewInt(99), 5, 3, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Renew(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
