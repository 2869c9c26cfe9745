// Package aont implements AONT-RS (Resch & Plank, FAST '11): an
// all-or-nothing transform composed with systematic Reed-Solomon
// dispersal, as deployed in the Cleversafe / IBM Cloud Object Storage
// system the paper discusses in §3.2.
//
// The transform splits the data into s blocks m_1..m_s, picks a random key
// k, and computes
//
//	c_i     = m_i ⊕ E_k(i+1)          for i = 1..s
//	c_{s+1} = k ⊕ h(c_1, ..., c_s)
//
// The s+1 blocks are then erasure-coded into n codewords and dispersed,
// one per storage node. A computationally bounded adversary who holds
// fewer than the reconstruction threshold of codewords provably learns
// nothing, *and no key needs to be stored anywhere* — the key is blended
// into the package. But the guarantee is only as strong as E and h: once
// either is broken, a single share plus cryptanalysis "knows the key",
// which is why Table 1 classifies AONT-RS as computationally secure at
// rest despite its dispersal. That failure mode is exercised by the HNDL
// experiment (E4).
package aont

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"securearchive/internal/rs"
)

// BlockSize is the AONT block granularity (the AES block size).
const BlockSize = aes.BlockSize

// KeySize is the size of the blended random key (AES-256).
const KeySize = 32

// Errors returned by this package.
var (
	ErrEmptyData   = errors.New("aont: empty data")
	ErrCorrupt     = errors.New("aont: package integrity check failed")
	ErrTooShort    = errors.New("aont: package too short")
	ErrInvalidCode = errors.New("aont: invalid dispersal parameters")
)

// Package is an AONT-encoded byte package before/after dispersal.
// Layout: [ canary-prefixed payload blocks ][ final key block (KeySize) ].
type Package struct {
	// Blocks is the c_1..c_s payload followed by the difference block
	// c_{s+1}, as one contiguous byte string.
	Data []byte
	// PlainLen is the original payload length (the transform pads to the
	// block size internally).
	PlainLen int
}

// Transform applies the all-or-nothing transform to data using randomness
// from rnd for the blended key.
func Transform(data []byte, rnd io.Reader) (*Package, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, fmt.Errorf("aont: reading randomness: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aont: %w", err)
	}

	padded := pad(data)
	out := make([]byte, len(padded)+KeySize)
	// c_i = m_i XOR E_k(i+1), computed as AES-CTR with a fixed zero nonce:
	// the key is single-use by construction, so the fixed nonce is safe.
	var iv [aes.BlockSize]byte
	ctr := cipher.NewCTR(block, iv[:])
	ctr.XORKeyStream(out[:len(padded)], padded)

	// c_{s+1} = k XOR h(c_1..c_s). The hash also covers the plaintext
	// length so truncation is detected at inverse time.
	digest := packageDigest(out[:len(padded)], len(data))
	for i := 0; i < KeySize; i++ {
		out[len(padded)+i] = key[i] ^ digest[i]
	}
	return &Package{Data: out, PlainLen: len(data)}, nil
}

// Inverse recovers the original data from a complete package. Any
// mutation of any package byte yields ErrCorrupt (wrong key → canary
// mismatch) or garbled output detected by the embedded digest.
func Inverse(p *Package) ([]byte, error) {
	if p == nil || len(p.Data) < KeySize+BlockSize {
		return nil, ErrTooShort
	}
	body := p.Data[:len(p.Data)-KeySize]
	keyBlock := p.Data[len(p.Data)-KeySize:]
	digest := packageDigest(body, p.PlainLen)
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = keyBlock[i] ^ digest[i]
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("aont: %w", err)
	}
	var iv [aes.BlockSize]byte
	plain := make([]byte, len(body))
	cipher.NewCTR(block, iv[:]).XORKeyStream(plain, body)
	out, err := unpad(plain, p.PlainLen)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// packageDigest hashes the ciphertext body plus the plaintext length.
func packageDigest(body []byte, plainLen int) [sha256.Size]byte {
	h := sha256.New()
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(plainLen))
	h.Write(lb[:])
	h.Write(body)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// pad appends a length-embedding pad: data ‖ canary. The canary is a
// fixed block whose corruption after inverse signals a damaged package.
func pad(data []byte) []byte {
	padLen := BlockSize - len(data)%BlockSize
	out := make([]byte, len(data)+padLen+BlockSize)
	copy(out, data)
	for i := len(data); i < len(data)+padLen; i++ {
		out[i] = byte(padLen)
	}
	copy(out[len(data)+padLen:], canary[:])
	return out
}

var canary = [BlockSize]byte{'A', 'O', 'N', 'T', '-', 'R', 'S', ':', 'c', 'a', 'n', 'a', 'r', 'y', '0', '1'}

func unpad(plain []byte, plainLen int) ([]byte, error) {
	if len(plain) < BlockSize || plainLen < 0 || plainLen > len(plain)-BlockSize {
		return nil, ErrCorrupt
	}
	// Verify the canary block.
	for i := 0; i < BlockSize; i++ {
		if plain[len(plain)-BlockSize+i] != canary[i] {
			return nil, ErrCorrupt
		}
	}
	return plain[:plainLen], nil
}

// Scheme couples the transform with Reed-Solomon dispersal: Encode
// produces n shards of which any k reconstruct, with AONT security below
// the threshold.
type Scheme struct {
	Code *rs.Code
}

// NewScheme builds an AONT-RS scheme with k-of-n dispersal. Options
// (e.g. rs.WithParallelism) are forwarded to the underlying code.
func NewScheme(k, n int, opts ...rs.Option) (*Scheme, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("%w: k=%d n=%d", ErrInvalidCode, k, n)
	}
	code, err := rs.New(k, n-k, opts...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidCode, err)
	}
	return &Scheme{Code: code}, nil
}

// Encode transforms data and disperses the package into n shards.
// It returns the shards and the package length needed for decode.
func (s *Scheme) Encode(data []byte) (shards [][]byte, pkgLen int, err error) {
	p, err := Transform(data, rand.Reader)
	if err != nil {
		return nil, 0, err
	}
	shards, err = s.Code.Encode(p.Data)
	if err != nil {
		return nil, 0, err
	}
	return shards, len(p.Data), nil
}

// Decode reconstructs from shards (nil = missing) and inverts the
// transform. plainLen is the original data length; pkgLen the value
// returned by Encode.
func (s *Scheme) Decode(shards [][]byte, pkgLen, plainLen int) ([]byte, error) {
	if err := s.Code.Reconstruct(shards); err != nil {
		return nil, err
	}
	pkg, err := s.Code.Join(shards, pkgLen)
	if err != nil {
		return nil, err
	}
	return Inverse(&Package{Data: pkg, PlainLen: plainLen})
}
