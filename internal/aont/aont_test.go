package aont

import (
	"bytes"
	"crypto/rand"
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func TestTransformInverseRoundTrip(t *testing.T) {
	for _, size := range []int{1, 15, 16, 17, 1000, 4096} {
		data := make([]byte, size)
		rand.Read(data)
		p, err := Transform(data, rand.Reader)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, err := Inverse(p)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: round trip failed", size)
		}
	}
}

func TestTransformIsRandomised(t *testing.T) {
	data := []byte("same input twice")
	p1, _ := Transform(data, rand.Reader)
	p2, _ := Transform(data, rand.Reader)
	if bytes.Equal(p1.Data, p2.Data) {
		t.Fatal("transform deterministic: blended key not random")
	}
}

// TestAllOrNothing: flipping ANY single byte of the package makes the
// inverse fail (the digest shift garbles the recovered key, and the
// canary catches it).
func TestAllOrNothing(t *testing.T) {
	data := []byte("all or nothing at all")
	p, _ := Transform(data, rand.Reader)
	rng := mrand.New(mrand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		i := rng.Intn(len(p.Data))
		corrupted := &Package{Data: append([]byte(nil), p.Data...), PlainLen: p.PlainLen}
		corrupted.Data[i] ^= byte(1 + rng.Intn(255))
		got, err := Inverse(corrupted)
		if err == nil && bytes.Equal(got, data) {
			t.Fatalf("byte %d flip survived inverse", i)
		}
	}
}

// TestMissingBlockRevealsNothing: with the final key block withheld, the
// adversary cannot invert (models holding < all s+1 blocks).
func TestMissingBlockRevealsNothing(t *testing.T) {
	data := bytes.Repeat([]byte("secret"), 100)
	p, _ := Transform(data, rand.Reader)
	truncated := &Package{Data: p.Data[:len(p.Data)-KeySize], PlainLen: p.PlainLen}
	if _, err := Inverse(truncated); err == nil {
		t.Fatal("truncated package inverted successfully")
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := Transform(nil, rand.Reader); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("empty data: %v", err)
	}
	if _, err := Inverse(&Package{Data: []byte{1, 2}}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short package: %v", err)
	}
}

func TestSchemeEncodeDecode(t *testing.T) {
	s, err := NewScheme(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 10000)
	rand.Read(data)
	shards, pkgLen, err := s.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 7 {
		t.Fatalf("%d shards, want 7", len(shards))
	}
	// Lose 3 shards (any n-k).
	shards[0], shards[3], shards[6] = nil, nil, nil
	got, err := s.Decode(shards, pkgLen, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dispersed round trip failed")
	}
}

func TestSchemeTooManyLost(t *testing.T) {
	s, _ := NewScheme(4, 6)
	data := make([]byte, 100)
	shards, pkgLen, _ := s.Encode(data)
	shards[0], shards[1], shards[2] = nil, nil, nil // 3 lost > n-k = 2
	if _, err := s.Decode(shards, pkgLen, len(data)); err == nil {
		t.Fatal("decode succeeded with too many erasures")
	}
}

func TestSchemeParamValidation(t *testing.T) {
	if _, err := NewScheme(0, 4); !errors.Is(err, ErrInvalidCode) {
		t.Fatalf("k=0: %v", err)
	}
	if _, err := NewScheme(5, 4); !errors.Is(err, ErrInvalidCode) {
		t.Fatalf("n<k: %v", err)
	}
}

// TestStorageOverheadApproachesNOverK measures the shards Encode writes:
// for an archive-sized object the key and canary amortise away and
// AONT-RS stores n/k, as plain erasure coding does — its selling point
// in Figure 1.
func TestStorageOverheadApproachesNOverK(t *testing.T) {
	s, _ := NewScheme(4, 7)
	shards, _, err := s.Encode(make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, sh := range shards {
		stored += len(sh)
	}
	if oh := float64(stored) / (1 << 20); oh < 1.74 || oh > 1.80 {
		t.Fatalf("1MiB overhead %.3f, want ≈ 7/4 = 1.75", oh)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		p, err := Transform(data, rand.Reader)
		if err != nil {
			return false
		}
		got, err := Inverse(p)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransform1MiB(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.Read(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transform(data, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncode4of7_1MiB(b *testing.B) {
	s, _ := NewScheme(4, 7)
	data := make([]byte, 1<<20)
	rand.Read(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}
