package bsm

import (
	"bytes"
	"errors"
	"testing"
)

func TestExchangeProducesKey(t *testing.T) {
	p := Params{StreamBytes: 100000, SampleBytes: 256, AdversaryFraction: 0.5, KeyBytes: 32}
	res, err := Exchange(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Key) != 32 {
		t.Fatalf("key length %d", len(res.Key))
	}
	if !res.Secure {
		t.Fatalf("expected secure: fresh=%d", res.FreshEntropyBytes)
	}
	// α=0.5 over 256 samples: Eve should know about half, ±generous slack.
	if res.EveKnownSamples < 80 || res.EveKnownSamples > 176 {
		t.Fatalf("Eve knows %d/256 samples at α=0.5, want ≈128", res.EveKnownSamples)
	}
	if res.FreshEntropyBytes != 256-res.EveKnownSamples {
		t.Fatal("fresh entropy accounting wrong")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	p := Params{StreamBytes: 50000, SampleBytes: 128, AdversaryFraction: 0.3, KeyBytes: 16}
	a, _ := Exchange(p, 7)
	b, _ := Exchange(p, 7)
	if !bytes.Equal(a.Key, b.Key) {
		t.Fatal("same seed, different keys")
	}
	c, _ := Exchange(p, 8)
	if bytes.Equal(a.Key, c.Key) {
		t.Fatal("different seed, same key")
	}
}

// TestAlphaSweepMonotone: more adversary storage → more known samples,
// less fresh entropy (E9's x-axis).
func TestAlphaSweepMonotone(t *testing.T) {
	base := Params{StreamBytes: 200000, SampleBytes: 512, KeyBytes: 32, EveStrategy: EveRandom}
	prevKnown := -1
	for _, alpha := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := base
		p.AdversaryFraction = alpha
		res, err := Exchange(p, 99)
		if err != nil {
			t.Fatal(err)
		}
		if res.EveKnownSamples <= prevKnown {
			t.Fatalf("α=%v: Eve knowledge %d not increasing (prev %d)", alpha, res.EveKnownSamples, prevKnown)
		}
		prevKnown = res.EveKnownSamples
	}
}

// TestHighAlphaInsecure: at α=0.95-ish... capped below 1; with α close to
// 1 and a small sample, fresh entropy collapses below the key size.
func TestHighAlphaInsecure(t *testing.T) {
	p := Params{StreamBytes: 100000, SampleBytes: 40, AdversaryFraction: 0.99, KeyBytes: 32, EveStrategy: EveRandom}
	res, err := Exchange(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Secure {
		t.Fatalf("α=0.99 with 40 samples reported secure (fresh=%d)", res.FreshEntropyBytes)
	}
}

func TestEvePrefixStrategy(t *testing.T) {
	p := Params{StreamBytes: 100000, SampleBytes: 128, AdversaryFraction: 0.4, KeyBytes: 16, EveStrategy: EvePrefix}
	res, err := Exchange(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.EveStoredBytes != 40000 {
		t.Fatalf("Eve stored %d, want 40000", res.EveStoredBytes)
	}
	// Random positions land in the prefix w.p. 0.4: expect ≈51 of 128.
	if res.EveKnownSamples < 25 || res.EveKnownSamples > 80 {
		t.Fatalf("prefix Eve knows %d/128, want ≈51", res.EveKnownSamples)
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{StreamBytes: 0, SampleBytes: 1, KeyBytes: 1},
		{StreamBytes: 10, SampleBytes: 0, KeyBytes: 1},
		{StreamBytes: 10, SampleBytes: 11, KeyBytes: 1},
		{StreamBytes: 10, SampleBytes: 5, KeyBytes: 0},
		{StreamBytes: 10, SampleBytes: 5, KeyBytes: 1, AdversaryFraction: 1.0},
		{StreamBytes: 10, SampleBytes: 5, KeyBytes: 1, AdversaryFraction: -0.1},
	}
	for i, p := range bad {
		if _, err := Exchange(p, 1); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestMaxSecureKeyBytes: the largest key a run can claim secure is its
// fresh entropy minus the amplification margin. The key length draws no
// randomness, so one seed measures the same fresh entropy at every size.
func TestMaxSecureKeyBytes(t *testing.T) {
	p := Params{StreamBytes: 1000, SampleBytes: 100, AdversaryFraction: 0.5, KeyBytes: 1}
	res, err := Exchange(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	max := res.FreshEntropyBytes - amplificationMarginBytes
	if max < 30 || max > 55 {
		t.Fatalf("fresh entropy %d at α=0.5 of 100 samples", res.FreshEntropyBytes)
	}
	for _, c := range []struct {
		key    int
		secure bool
	}{{max, true}, {max + 1, false}} {
		p.KeyBytes = c.key
		if res, _ := Exchange(p, 5); res.Secure != c.secure {
			t.Fatalf("%d-byte key secure=%v, want %v (fresh %d)", c.key, res.Secure, c.secure, res.FreshEntropyBytes)
		}
	}
	// α=0.99: Eve knows nearly every sample and no key survives.
	p.AdversaryFraction, p.KeyBytes = 0.99, 1
	if res, _ := Exchange(p, 5); res.Secure {
		t.Fatalf("collapsed budget still secure: fresh %d", res.FreshEntropyBytes)
	}
}

// TestZeroAlphaPerfect: with no adversary storage, all samples are fresh.
func TestZeroAlphaPerfect(t *testing.T) {
	p := Params{StreamBytes: 10000, SampleBytes: 64, AdversaryFraction: 0, KeyBytes: 32}
	res, err := Exchange(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.EveKnownSamples != 0 || res.FreshEntropyBytes != 64 || !res.Secure {
		t.Fatalf("α=0 run: %+v", res)
	}
}

func BenchmarkExchange1MBStream(b *testing.B) {
	p := Params{StreamBytes: 1 << 20, SampleBytes: 1024, AdversaryFraction: 0.5, KeyBytes: 32}
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		if _, err := Exchange(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
