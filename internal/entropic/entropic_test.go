package entropic

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	msg := make([]byte, 1000)
	rand.Read(msg)
	key := make([]byte, KeyLenFor(len(msg), 7000, 128))
	rand.Read(key)
	ct, err := Encrypt(msg, key, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct.Body, msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	got, err := Decrypt(ct, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip failed")
	}
}

func TestKeyLenFor(t *testing.T) {
	// Full-entropy message: key collapses to the floor.
	if got := KeyLenFor(1000, 8000, 0); got != MinKeyLen {
		t.Fatalf("full entropy key len = %d, want %d", got, MinKeyLen)
	}
	// Zero-entropy message: key as long as the message (degenerates to OTP).
	if got := KeyLenFor(1000, 0, 0); got != 1000 {
		t.Fatalf("zero entropy key len = %d, want 1000", got)
	}
	// Middle: L − h/8 + 2s/8.
	if got := KeyLenFor(1000, 6400, 128); got != 1000-800+32 {
		t.Fatalf("key len = %d, want 232", got)
	}
	// Never exceeds message length.
	if got := KeyLenFor(100, 0, 4000); got != 100 {
		t.Fatalf("capped key len = %d, want 100", got)
	}
}

func TestShortKeyRejected(t *testing.T) {
	if _, err := Encrypt([]byte("msg"), make([]byte, MinKeyLen-1), rand.Reader); !errors.Is(err, ErrKeyTooShort) {
		t.Fatalf("short key: %v", err)
	}
}

func TestEmptyMessage(t *testing.T) {
	if _, err := Encrypt(nil, make([]byte, 32), rand.Reader); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty message: %v", err)
	}
	if _, err := Decrypt(nil, make([]byte, 32)); !errors.Is(err, ErrEmpty) {
		t.Fatalf("nil ciphertext: %v", err)
	}
}

func TestSeedKeyLengthMismatch(t *testing.T) {
	msg := make([]byte, 64)
	key := make([]byte, 32)
	rand.Read(key)
	ct, _ := Encrypt(msg, key, rand.Reader)
	if _, err := Decrypt(ct, make([]byte, 16)); !errors.Is(err, ErrKeySize) {
		t.Fatalf("mismatched key: %v", err)
	}
}

func TestWrongKeyGarbles(t *testing.T) {
	msg := []byte("high entropy? hopefully.")
	k1 := make([]byte, 32)
	k2 := make([]byte, 32)
	rand.Read(k1)
	rand.Read(k2)
	ct, _ := Encrypt(msg, k1, rand.Reader)
	got, err := Decrypt(ct, k2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("wrong key decrypted correctly")
	}
}

// TestKeyShorterThanMessage is the headline property: the key is shorter
// than the message, unlike OTP — that is the whole storage argument.
func TestKeyShorterThanMessage(t *testing.T) {
	msgLen := 1 << 20
	keyLen := KeyLenFor(msgLen, (msgLen*8)*7/8, 128) // 7/8 entropy rate
	if keyLen >= msgLen {
		t.Fatalf("key (%d) not shorter than message (%d)", keyLen, msgLen)
	}
	// Stored bytes per message byte: ciphertext plus key.
	if oh := float64(msgLen+keyLen) / float64(msgLen); oh >= 2.0 || oh <= 1.0 {
		t.Fatalf("overhead %.3f outside (1, 2)", oh)
	}
}

// TestPadPositionDiversity: the stretched pad must not repeat with the key
// period, or ciphertext-only XOR attacks across positions become trivial.
// We encrypt a zero message (pad becomes visible) and check that the first
// key-length block differs from the following blocks.
func TestPadPositionDiversity(t *testing.T) {
	key := make([]byte, 32)
	rand.Read(key)
	msg := make([]byte, 32*4)
	ct, _ := Encrypt(msg, key, rand.Reader)
	b0 := ct.Body[:32]
	for blk := 1; blk < 4; blk++ {
		if bytes.Equal(b0, ct.Body[32*blk:32*(blk+1)]) {
			t.Fatalf("pad repeats at block %d: not position-tweaked", blk)
		}
	}
}

// TestLowEntropyCaveat documents the scheme's failure mode on low-entropy
// data: two *known* candidate messages can be distinguished by an
// adversary who sees the ciphertext and knows the seed, when the key is
// shorter than the information gap. We demonstrate the much weaker but
// executable fact that pad reuse across two messages with the SAME key
// and seed leaks their XOR.
func TestLowEntropyCaveat(t *testing.T) {
	key := make([]byte, 32)
	rand.Read(key)
	m1 := bytes.Repeat([]byte{0x00}, 64)
	m2 := bytes.Repeat([]byte{0xFF}, 64)
	ct1, _ := Encrypt(m1, key, rand.Reader)
	// Reuse ct1's seed deliberately (misuse).
	ct2 := &Ciphertext{Seed: ct1.Seed, Body: make([]byte, 64)}
	xorPad(ct2.Body, m2, key, ct1.Seed)
	for i := range ct1.Body {
		if ct1.Body[i]^ct2.Body[i] != m1[i]^m2[i] {
			t.Fatal("expected pad-reuse leak identity to hold")
		}
	}
}

func BenchmarkEncrypt64KiB(b *testing.B) {
	msg := make([]byte, 64<<10)
	key := make([]byte, 4096)
	rand.Read(key)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(msg, key, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
