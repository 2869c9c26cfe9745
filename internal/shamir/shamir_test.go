package shamir

import (
	"bytes"
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	secret := []byte("the archive outlives the cipher")
	for _, tc := range []struct{ n, th int }{
		{1, 1}, {2, 2}, {5, 3}, {8, 4}, {255, 128},
	} {
		shares, err := Split(secret, tc.n, tc.th, rand.Reader)
		if err != nil {
			t.Fatalf("Split(n=%d t=%d): %v", tc.n, tc.th, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("got %d shares, want %d", len(shares), tc.n)
		}
		got, err := Combine(shares[:tc.th])
		if err != nil {
			t.Fatalf("Combine(n=%d t=%d): %v", tc.n, tc.th, err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("n=%d t=%d: secret mismatch", tc.n, tc.th)
		}
	}
}

func TestCombineAnySubset(t *testing.T) {
	secret := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF}
	shares, err := Split(secret, 6, 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		idx := rng.Perm(6)[:3]
		sub := []Share{shares[idx[0]], shares[idx[1]], shares[idx[2]]}
		got, err := Combine(sub)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("subset %v: mismatch", idx)
		}
	}
}

func TestCombineWithSurplusSharesChecksConsistency(t *testing.T) {
	secret := []byte("surplus")
	shares, _ := Split(secret, 5, 2, rand.Reader)
	if _, err := Combine(shares); err != nil {
		t.Fatalf("consistent surplus shares rejected: %v", err)
	}
	shares[4].Payload[0] ^= 1
	if _, err := Combine(shares); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("corrupted surplus share not detected: %v", err)
	}
}

func TestTooFewShares(t *testing.T) {
	shares, _ := Split([]byte("x"), 5, 3, rand.Reader)
	if _, err := Combine(shares[:2]); !errors.Is(err, ErrTooFewShares) {
		t.Fatalf("expected ErrTooFewShares, got %v", err)
	}
	if _, err := Combine(nil); !errors.Is(err, ErrTooFewShares) {
		t.Fatalf("expected ErrTooFewShares for empty input, got %v", err)
	}
}

func TestDuplicateShareRejected(t *testing.T) {
	shares, _ := Split([]byte("x"), 3, 2, rand.Reader)
	dup := []Share{shares[0], shares[0]}
	if _, err := Combine(dup); !errors.Is(err, ErrDuplicateShare) {
		t.Fatalf("expected ErrDuplicateShare, got %v", err)
	}
}

func TestParamValidation(t *testing.T) {
	if _, err := Split([]byte("x"), 3, 0, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("t=0: %v", err)
	}
	if _, err := Split([]byte("x"), 3, 4, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("t>n: %v", err)
	}
	if _, err := Split([]byte("x"), 256, 2, rand.Reader); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("n>255: %v", err)
	}
	if _, err := Split(nil, 3, 2, rand.Reader); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("empty secret: %v", err)
	}
	if _, err := SplitAt([]byte("x"), []byte{0, 1}, 2, rand.Reader); !errors.Is(err, ErrInvalidShareX) {
		t.Errorf("x=0: %v", err)
	}
	if _, err := SplitAt([]byte("x"), []byte{1, 1}, 2, rand.Reader); !errors.Is(err, ErrDuplicateShare) {
		t.Errorf("dup x: %v", err)
	}
}

// TestPerfectSecrecy verifies the information-theoretic property on a
// 1-byte secret with t=2: for a fixed share observed by the adversary,
// every secret value remains possible (in fact equally likely over the
// choice of the random coefficient). We enumerate: for share (x, y), for
// every candidate secret s there must exist exactly one coefficient c with
// s + c*x = y.
func TestPerfectSecrecy(t *testing.T) {
	secret := []byte{0x42}
	shares, err := Split(secret, 3, 2, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	observed := shares[0]
	count := 0
	for s := 0; s < 256; s++ {
		for c := 0; c < 256; c++ {
			// f(x) = s + c·x
			y := byte(s) ^ mulByte(byte(c), observed.X)
			if y == observed.Payload[0] {
				count++
			}
		}
	}
	if count != 256 {
		t.Fatalf("observed share is consistent with %d (secret, coeff) pairs, want 256 (one per secret)", count)
	}
}

func mulByte(a, b byte) byte {
	// Schoolbook GF(2^8) multiply with poly 0x11B, independent of the
	// package's table implementation.
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1B
		}
		b >>= 1
	}
	return p
}

// TestShareDistributionUniform checks empirically that a single share byte
// is uniform regardless of the secret: chi-squared over 256 buckets.
func TestShareDistributionUniform(t *testing.T) {
	const trials = 25600
	counts := make([]int, 256)
	secret := []byte{0xFF} // fixed, adversarially "structured" secret
	for i := 0; i < trials; i++ {
		shares, err := Split(secret, 2, 2, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		counts[shares[0].Payload[0]]++
	}
	expected := float64(trials) / 256
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 255 degrees of freedom; 99.99% quantile ≈ 368. Flag only gross
	// non-uniformity, this is a smoke test not a NIST suite.
	if chi2 > 400 {
		t.Fatalf("share byte distribution non-uniform: chi2=%.1f", chi2)
	}
}

// addShares is the share-wise sum of two sharings over the same points,
// the step pss renewal applies in place: sharing is linear, so the sum
// shares the XOR of the two secrets.
func addShares(a, b []Share) []Share {
	out := make([]Share, len(a))
	for i := range a {
		out[i] = a[i].Clone()
		for j, v := range b[i].Payload {
			out[i].Payload[j] ^= v
		}
	}
	return out
}

func TestAddHomomorphism(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{0xF0, 0x0F, 0xAA, 0x55}
	sa, _ := Split(a, 4, 2, rand.Reader)
	sb, _ := Split(b, 4, 2, rand.Reader)
	got, err := Combine(addShares(sa, sb)[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got[i] != a[i]^b[i] {
			t.Fatalf("Add homomorphism broken at byte %d", i)
		}
	}
}

func TestAddZeroSharingRefreshes(t *testing.T) {
	secret := []byte("refresh")
	orig, _ := Split(secret, 4, 2, rand.Reader)
	zero, _ := Split(make([]byte, len(secret)), 4, 2, rand.Reader)
	// A sharing of zero has random non-constant coefficients, so shares
	// change; but the sum still encodes the secret. (The zero sharing here
	// shares the literal zero string, which is what Herzberg refresh does
	// modulo the f(0)=0 constraint; pss package handles that precisely.)
	got, err := Combine(addShares(orig, zero)[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("refreshed shares do not reconstruct the secret")
	}
}

func TestCloneIsDeep(t *testing.T) {
	shares, _ := Split([]byte("orig"), 2, 2, rand.Reader)
	c := shares[0].Clone()
	c.Payload[0] ^= 0xFF
	if shares[0].Payload[0] == c.Payload[0] {
		t.Fatal("Clone shares payload storage")
	}
}

func TestPropertyQuickRoundTrip(t *testing.T) {
	f := func(secret []byte, seed int64) bool {
		if len(secret) == 0 {
			return true
		}
		shares, err := Split(secret, 7, 4, rand.Reader)
		if err != nil {
			return false
		}
		rng := mrand.New(mrand.NewSource(seed))
		idx := rng.Perm(7)[:4]
		sub := make([]Share, 4)
		for i, j := range idx {
			sub[i] = shares[j]
		}
		got, err := Combine(sub)
		return err == nil && bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSplit8of5_64KiB(b *testing.B) {
	secret := make([]byte, 64<<10)
	rand.Read(secret)
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Split(secret, 8, 5, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine5_64KiB(b *testing.B) {
	secret := make([]byte, 64<<10)
	rand.Read(secret)
	shares, _ := Split(secret, 8, 5, rand.Reader)
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(shares[:5]); err != nil {
			b.Fatal(err)
		}
	}
}
