package cascade

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

var allSchemes = []Scheme{AES256CTR, ChaCha20, SHA256CTR}

func TestRegistry(t *testing.T) {
	for _, s := range allSchemes {
		c, err := Get(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if c.Scheme() != s {
			t.Fatalf("scheme mismatch: %s != %s", c.Scheme(), s)
		}
		if c.KeySize() < 32 {
			t.Fatalf("%s key size %d < 256 bits", s, c.KeySize())
		}
	}
	if _, err := Get("rot13"); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown scheme: %v", err)
	}
	if got := Schemes(); len(got) != 3 {
		t.Fatalf("Schemes() returned %d entries", len(got))
	}
}

func TestEachCipherRoundTrip(t *testing.T) {
	msg := []byte("every registered family must round-trip independently")
	for _, s := range allSchemes {
		c, _ := Get(s)
		key := make([]byte, c.KeySize())
		nonce := make([]byte, c.NonceSize())
		rand.Read(key)
		rand.Read(nonce)
		ct := make([]byte, len(msg))
		if err := c.XOR(ct, msg, key, nonce); err != nil {
			t.Fatalf("%s encrypt: %v", s, err)
		}
		if bytes.Equal(ct, msg) {
			t.Fatalf("%s: ciphertext equals plaintext", s)
		}
		pt := make([]byte, len(ct))
		if err := c.XOR(pt, ct, key, nonce); err != nil {
			t.Fatalf("%s decrypt: %v", s, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("%s: round trip failed", s)
		}
	}
}

func TestCipherKeySizeValidation(t *testing.T) {
	for _, s := range allSchemes {
		c, _ := Get(s)
		bad := make([]byte, c.KeySize()-1)
		nonce := make([]byte, c.NonceSize())
		if err := c.XOR(make([]byte, 4), make([]byte, 4), bad, nonce); err == nil {
			t.Fatalf("%s accepted short key", s)
		}
	}
}

func TestCascadeEncryptDecrypt(t *testing.T) {
	msg := []byte("three independent families stand between you and this text")
	keys, err := GenerateKeys(allSchemes, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Encrypt(msg, keys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Layers) != 3 {
		t.Fatalf("%d layers, want 3", len(env.Layers))
	}
	if bytes.Equal(env.Body, msg) {
		t.Fatal("cascade body equals plaintext")
	}
	got, err := Decrypt(env, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("cascade round trip failed")
	}
}

func TestDecryptWrongOrderFails(t *testing.T) {
	msg := []byte("order matters")
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)
	swapped := []LayerKey{keys[1], keys[0], keys[2]}
	if _, err := Decrypt(env, swapped); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("scheme-order mismatch not caught: %v", err)
	}
}

func TestDecryptWrongKeyGarbles(t *testing.T) {
	msg := []byte("wrong key wrong text")
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)
	bad := make([]LayerKey, len(keys))
	copy(bad, keys)
	wrong := make([]byte, len(keys[1].Key))
	rand.Read(wrong)
	bad[1] = LayerKey{Scheme: keys[1].Scheme, Key: wrong}
	got, err := Decrypt(env, bad)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("wrong key still decrypted (astronomically unlikely)")
	}
}

func TestWrapAddsLayerWithoutReencrypting(t *testing.T) {
	msg := []byte("wrap me when AES falls")
	keys, _ := GenerateKeys([]Scheme{AES256CTR}, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)

	newKeys, _ := GenerateKeys([]Scheme{ChaCha20}, rand.Reader)
	if err := Wrap(env, newKeys[0], rand.Reader); err != nil {
		t.Fatal(err)
	}
	if len(env.Layers) != 2 {
		t.Fatalf("%d layers after wrap, want 2", len(env.Layers))
	}
	full := append(keys, newKeys[0])
	got, err := Decrypt(env, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrapped envelope round trip failed")
	}
}

func TestWrapEmptyEnvelopeRejected(t *testing.T) {
	keys, _ := GenerateKeys([]Scheme{AES256CTR}, rand.Reader)
	if err := Wrap(&Envelope{}, keys[0], rand.Reader); !errors.Is(err, ErrNoLayers) {
		t.Fatalf("wrap on empty envelope: %v", err)
	}
}

func TestSecureAgainst(t *testing.T) {
	msg := []byte("combiner property")
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)
	if !env.SecureAgainst(map[Scheme]bool{AES256CTR: true}) {
		t.Fatal("one broken layer should not break the cascade")
	}
	if !env.SecureAgainst(map[Scheme]bool{AES256CTR: true, ChaCha20: true}) {
		t.Fatal("two broken layers should not break the cascade")
	}
	if env.SecureAgainst(map[Scheme]bool{AES256CTR: true, ChaCha20: true, SHA256CTR: true}) {
		t.Fatal("all layers broken: cascade must report insecure")
	}
}

// TestStripBrokenFullBreak plays the HNDL adversary end-to-end: every
// scheme is eventually broken; stripping all layers recovers plaintext.
func TestStripBrokenFullBreak(t *testing.T) {
	msg := []byte("harvest now, decrypt later")
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)
	broken := map[Scheme]bool{AES256CTR: true, ChaCha20: true, SHA256CTR: true}
	oracle := func(layer int, s Scheme) []byte { return keys[layer].Key }
	got, remaining, err := StripBroken(env, broken, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != 0 {
		t.Fatalf("remaining layers %v, want none", remaining)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("full break did not recover plaintext")
	}
}

// TestStripBrokenSurvivorShields: with the outermost layer unbroken, the
// adversary cannot strip anything, even if inner layers are broken.
func TestStripBrokenSurvivorShields(t *testing.T) {
	msg := []byte("the last unbroken layer holds the line")
	keys, _ := GenerateKeys(allSchemes, rand.Reader) // sha256-ctr outermost
	env, _ := Encrypt(msg, keys, rand.Reader)
	broken := map[Scheme]bool{AES256CTR: true, ChaCha20: true}
	oracle := func(layer int, s Scheme) []byte { return keys[layer].Key }
	got, remaining, err := StripBroken(env, broken, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != 3 {
		t.Fatalf("remaining = %v, want all 3 (outer survivor shields inner)", remaining)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("plaintext leaked through an unbroken outer layer")
	}
}

// TestStripBrokenPartial: outermost broken, middle unbroken → exactly one
// layer stripped.
func TestStripBrokenPartial(t *testing.T) {
	msg := []byte("peel the onion one layer")
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(msg, keys, rand.Reader)
	broken := map[Scheme]bool{SHA256CTR: true} // outermost only
	oracle := func(layer int, s Scheme) []byte { return keys[layer].Key }
	got, remaining, err := StripBroken(env, broken, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(remaining) != 2 {
		t.Fatalf("remaining = %v, want 2", remaining)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("partially stripped envelope revealed plaintext")
	}
}

func TestDecryptErrors(t *testing.T) {
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt([]byte("x"), keys, rand.Reader)
	if _, err := Decrypt(env, keys[:2]); !errors.Is(err, ErrKeyCount) {
		t.Fatalf("key count: %v", err)
	}
	if _, err := Decrypt(&Envelope{}, nil); !errors.Is(err, ErrNoLayers) {
		t.Fatalf("no layers: %v", err)
	}
	if _, err := Encrypt([]byte("x"), nil, rand.Reader); !errors.Is(err, ErrNoLayers) {
		t.Fatalf("encrypt no keys: %v", err)
	}
}

func TestOverheadNearOne(t *testing.T) {
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	env, _ := Encrypt(make([]byte, 1<<20), keys, rand.Reader)
	// Stream-cipher layers add only their nonces and names, so the
	// cascade stays in Figure 1's low-cost band.
	stored := len(env.Body)
	for _, l := range env.Layers {
		stored += len(l.Nonce) + len(l.Scheme)
	}
	if oh := float64(stored) / (1 << 20); oh > 1.001 {
		t.Fatalf("cascade overhead %.4f, want ≈1.0", oh)
	}
}

func BenchmarkCascade3Layers1MiB(b *testing.B) {
	keys, _ := GenerateKeys(allSchemes, rand.Reader)
	msg := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(msg, keys, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleAES1MiB(b *testing.B) {
	keys, _ := GenerateKeys([]Scheme{AES256CTR}, rand.Reader)
	msg := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(msg, keys, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
