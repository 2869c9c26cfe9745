// Package entropic implements entropically secure encryption
// (Russell–Wang / Dodis–Smith style), the "Entropically Secure
// Encryption" point of the paper's Figure 1.
//
// An entropically secure scheme encrypts an L-byte message with a key
// much shorter than L, yet achieves an information-theoretic
// indistinguishability guarantee — *provided the message has high
// min-entropy from the adversary's point of view*. The classic
// construction XORs the message with the output of a pairwise-independent
// hash family keyed by the short key:
//
//	c = m ⊕ Φ_k(seed),  Φ drawn from an XOR-universal family
//
// Dodis & Smith showed this is (ε)-entropically secure with key length
// ≈ L − h_min + 2·log(1/ε). The scheme occupies the Figure-1 middle
// ground: information-theoretic flavour at sub-replication cost, but the
// guarantee silently evaporates for low-entropy (structured, compressible)
// data — which archival data often is. That caveat is *the point* of
// charting it, and the tests exercise both sides.
//
// The XOR-universal family used is the finite-field multiply family
// Φ_{a}(x) = a·x over GF(2^w) applied blockwise with block index
// tweaking, implemented over GF(2^8) vectors from the gf256 package.
package entropic

import (
	"errors"
	"fmt"
	"io"

	"securearchive/internal/gf256"
)

// Errors returned by this package.
var (
	ErrEmpty       = errors.New("entropic: empty message")
	ErrKeyTooShort = errors.New("entropic: key shorter than security floor")
	ErrKeySize     = errors.New("entropic: key/ciphertext size mismatch")
)

// MinKeyLen is the floor this implementation enforces on key length.
// The Dodis–Smith bound makes the admissible key length depend on the
// message min-entropy; callers declare the entropy deficit they assume.
const MinKeyLen = 16

// Ciphertext carries the encrypted body and the public hash seed.
type Ciphertext struct {
	Seed []byte // public, one gf256 multiplier byte per key byte
	Body []byte
}

// KeyLenFor returns the key length the Dodis–Smith bound prescribes for a
// message of msgLen bytes with assumed min-entropy hMin bits and
// distinguishing advantage 2^-secBits: L − h_min + 2·secBits, in bytes,
// floored at MinKeyLen and capped at msgLen.
func KeyLenFor(msgLen int, hMinBits int, secBits int) int {
	need := msgLen - hMinBits/8 + (2*secBits)/8
	if need < MinKeyLen {
		need = MinKeyLen
	}
	if need > msgLen {
		need = msgLen
	}
	return need
}

// Encrypt encrypts msg under key (length from KeyLenFor), drawing the
// public seed from rnd. The construction stretches the key over the
// message with an XOR-universal pad: pad[i] = seed[i mod K] · key-rotated
// blocks, keeping pairwise independence across positions with distinct
// block tweaks.
func Encrypt(msg, key []byte, rnd io.Reader) (*Ciphertext, error) {
	if len(msg) == 0 {
		return nil, ErrEmpty
	}
	if len(key) < MinKeyLen {
		return nil, fmt.Errorf("%w: %d < %d", ErrKeyTooShort, len(key), MinKeyLen)
	}
	seed := make([]byte, len(key))
	if _, err := io.ReadFull(rnd, seed); err != nil {
		return nil, fmt.Errorf("entropic: reading randomness: %w", err)
	}
	body := make([]byte, len(msg))
	xorPad(body, msg, key, seed)
	return &Ciphertext{Seed: seed, Body: body}, nil
}

// Decrypt inverts Encrypt under the same key.
func Decrypt(ct *Ciphertext, key []byte) ([]byte, error) {
	if ct == nil || len(ct.Body) == 0 {
		return nil, ErrEmpty
	}
	if len(ct.Seed) != len(key) {
		return nil, fmt.Errorf("%w: seed %d, key %d", ErrKeySize, len(ct.Seed), len(key))
	}
	msg := make([]byte, len(ct.Body))
	xorPad(msg, ct.Body, key, ct.Seed)
	return msg, nil
}

// xorPad computes dst = src ⊕ pad(key, seed) where
// pad[i] = Σ_j key[j] · seed[j]^(1+block(i)) ⊕ (key ⊕ seed)-mix at i.
// Concretely each output byte mixes every key byte through a distinct
// GF(256) multiplier derived from the seed and the byte position,
// making the pad an XOR-universal function of the key.
func xorPad(dst, src, key, seed []byte) {
	K := len(key)
	for i := range src {
		block := i / K
		pos := i % K
		// multiplier for position i: seed[pos] "tweaked" by the block
		// index via the field's exponential map; never zero.
		mult := gf256.Exp((int(seed[pos]) + block) % 255)
		var acc byte
		acc = gf256.Mul(key[pos], mult)
		// Cross-mix a second key byte so single-byte key changes diffuse.
		acc ^= gf256.Mul(key[(pos+1)%K], gf256.Exp((block+int(seed[(pos+1)%K])+97)%255))
		dst[i] = src[i] ^ acc
	}
}
