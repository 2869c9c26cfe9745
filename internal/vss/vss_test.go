package vss

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"securearchive/internal/group"
)

func tg() *group.Group { return group.Default() }

func TestPedersenRoundTrip(t *testing.T) {
	g := tg()
	secret := big.NewInt(42424242)
	shares, comms, err := PedersenSplit(g, secret, 7, 4, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shares {
		if err := Verify(comms, s); err != nil {
			t.Fatalf("share %d failed verification: %v", s.X, err)
		}
	}
	got, err := Combine(g, shares[2:6], 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
}

func TestVerifyDetectsCorruptShare(t *testing.T) {
	g := tg()
	shares, comms, err := PedersenSplit(g, big.NewInt(1), 4, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bad := shares[0]
	bad.S = new(big.Int).Add(bad.S, big.NewInt(1))
	if err := Verify(comms, bad); !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("corrupted share accepted: %v", err)
	}
	bad2 := shares[1]
	bad2.Blind = new(big.Int).Add(bad2.Blind, big.NewInt(1))
	if err := Verify(comms, bad2); !errors.Is(err, ErrVerifyFailed) {
		t.Fatal("corrupted blinding share accepted")
	}
	noBlind := shares[2]
	noBlind.Blind = nil
	if err := Verify(comms, noBlind); !errors.Is(err, ErrVerifyFailed) {
		t.Fatal("missing blinding share accepted")
	}
}

// TestPedersenDoesNotLeakUnderDlogBreak: the same attack against Pedersen
// commitments fails, because C_0 = g^secret · h^blind is a uniformly
// random group element over the choice of blind. We check that C_0 does
// not equal g^secret (overwhelmingly) and that two sharings of the same
// secret produce different commitment vectors.
func TestPedersenDoesNotLeakUnderDlogBreak(t *testing.T) {
	g := tg()
	secret := big.NewInt(1337)
	_, comms1, _ := PedersenSplit(g, secret, 3, 2, rand.Reader)
	_, comms2, _ := PedersenSplit(g, secret, 3, 2, rand.Reader)
	if comms1.C[0].Cmp(g.ExpG(secret)) == 0 {
		t.Fatal("Pedersen C_0 equals g^secret: blinding absent")
	}
	if comms1.C[0].Cmp(comms2.C[0]) == 0 {
		t.Fatal("two Pedersen sharings share C_0: not randomised")
	}
}

func TestCombineErrors(t *testing.T) {
	g := tg()
	shares, _, _ := PedersenSplit(g, big.NewInt(9), 4, 3, rand.Reader)
	if _, err := Combine(g, shares[:2], 3); !errors.Is(err, ErrTooFewShares) {
		t.Fatalf("too few: %v", err)
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := Combine(g, dup, 3); !errors.Is(err, ErrDuplicateShare) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := Combine(g, shares, 0); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("t=0: %v", err)
	}
}

func TestParamsValidation(t *testing.T) {
	g := tg()
	if _, _, err := PedersenSplit(g, big.NewInt(1), 3, 4, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("t>n: %v", err)
	}
	if _, _, err := PedersenSplit(g, big.NewInt(1), 3, 0, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("t=0: %v", err)
	}
}

func TestSecretsModQ(t *testing.T) {
	// Secrets >= q must be reduced, and reconstruction returns the residue.
	g := tg()
	big := new(big.Int).Add(g.Q, new(big.Int).SetInt64(5))
	shares, _, err := PedersenSplit(g, big, 3, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Combine(g, shares[:2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 5 {
		t.Fatalf("got %v, want 5 (reduced)", got)
	}
}

func BenchmarkPedersenSplit5of3(b *testing.B) {
	g := tg()
	secret := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PedersenSplit(g, secret, 5, 3, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	g := tg()
	shares, comms, _ := PedersenSplit(g, big.NewInt(1), 5, 3, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(comms, shares[0]); err != nil {
			b.Fatal(err)
		}
	}
}
