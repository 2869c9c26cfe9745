package otp

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	pad, err := NewRandomPad(1024, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	recv := clonePad(t, pad)
	msg := []byte("perfectly secret message")
	ct, err := pad.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct.Body, msg) {
		t.Fatal("ciphertext equals plaintext (pad of zeros?)")
	}
	got, err := recv.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
}

// clonePad snapshots pad key material before any consumption, simulating
// the receiver's copy distributed out of band.
func clonePad(t *testing.T, p *Pad) *Pad {
	t.Helper()
	k := make([]byte, len(p.key))
	copy(k, p.key)
	return NewPad(k)
}

func TestPadConsumption(t *testing.T) {
	pad, _ := NewRandomPad(100, rand.Reader)
	if pad.Remaining() != 100 {
		t.Fatal("fresh pad accounting wrong")
	}
	if _, err := pad.Encrypt(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if pad.Remaining() != 40 {
		t.Fatalf("remaining = %d, want 40", pad.Remaining())
	}
	if _, err := pad.Encrypt(make([]byte, 41)); !errors.Is(err, ErrPadExhausted) {
		t.Fatalf("over-consumption: %v", err)
	}
	if _, err := pad.Encrypt(make([]byte, 40)); err != nil {
		t.Fatalf("exact-fit failed: %v", err)
	}
	if pad.Remaining() != 0 {
		t.Fatal("pad not fully consumed")
	}
}

func TestNoKeyReuse(t *testing.T) {
	pad, _ := NewRandomPad(64, rand.Reader)
	m1 := bytes.Repeat([]byte{0xAA}, 32)
	m2 := bytes.Repeat([]byte{0xAA}, 32)
	c1, _ := pad.Encrypt(m1)
	c2, _ := pad.Encrypt(m2)
	if c1.Offset == c2.Offset {
		t.Fatal("two encryptions used the same pad interval")
	}
	if bytes.Equal(c1.Body, c2.Body) {
		t.Fatal("identical plaintexts produced identical ciphertexts: key reuse")
	}
}

func TestUsedKeyZeroised(t *testing.T) {
	pad, _ := NewRandomPad(32, rand.Reader)
	if _, err := pad.Encrypt(make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	for i, b := range pad.key {
		if b != 0 {
			t.Fatalf("consumed key byte %d not zeroised", i)
		}
	}
}

func TestDecryptSingleUse(t *testing.T) {
	pad, _ := NewRandomPad(64, rand.Reader)
	recv := clonePad(t, pad)
	msg := []byte("decrypt once")
	ct, _ := pad.Encrypt(msg)
	if _, err := recv.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	// Second decrypt hits zeroised key: output differs from msg.
	got, err := recv.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("pad interval reusable on receiver side")
	}
}

func TestDecryptIntervalValidation(t *testing.T) {
	pad, _ := NewRandomPad(16, rand.Reader)
	bad := &Ciphertext{Offset: 10, Body: make([]byte, 10)}
	if _, err := pad.Decrypt(bad); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("out-of-range interval: %v", err)
	}
	neg := &Ciphertext{Offset: -1, Body: make([]byte, 4)}
	if _, err := pad.Decrypt(neg); !errors.Is(err, ErrBadInterval) {
		t.Fatalf("negative offset: %v", err)
	}
	if _, err := pad.Decrypt(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("nil ciphertext: %v", err)
	}
}

func TestEmptyMessage(t *testing.T) {
	pad, _ := NewRandomPad(16, rand.Reader)
	if _, err := pad.Encrypt(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty message: %v", err)
	}
}

// TestPerfectSecrecyEnumeration: for a 1-byte message, the ciphertext
// distribution is uniform over all 256 values as the key varies — every
// plaintext remains equally consistent with an observed ciphertext.
func TestPerfectSecrecyEnumeration(t *testing.T) {
	seen := make(map[byte]bool)
	for k := 0; k < 256; k++ {
		pad := NewPad([]byte{byte(k)})
		ct, err := pad.Encrypt([]byte{0x5A})
		if err != nil {
			t.Fatal(err)
		}
		seen[ct.Body[0]] = true
	}
	if len(seen) != 256 {
		t.Fatalf("ciphertext support has %d values, want 256", len(seen))
	}
}

// TestStorageOverhead is Figure 1's accounting for OTP: a message costs
// its ciphertext plus an equally long stretch of pad, so 2x.
func TestStorageOverhead(t *testing.T) {
	pad, _ := NewRandomPad(1000, rand.Reader)
	ct, err := pad.Encrypt(make([]byte, 600))
	if err != nil {
		t.Fatal(err)
	}
	if stored := len(ct.Body) + 1000 - pad.Remaining(); stored != 2*600 {
		t.Fatalf("stored %d bytes for 600, want %d", stored, 2*600)
	}
}

func BenchmarkEncrypt64KiB(b *testing.B) {
	msg := make([]byte, 64<<10)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pad, _ := NewRandomPad(len(msg), rand.Reader)
		b.StartTimer()
		if _, err := pad.Encrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}
