// Package core is the crypto-agile secure-archival framework this
// reproduction builds as the paper's called-for (but unbuilt) artifact:
// a single Encoding abstraction covering every data encoding in Figure 1,
// a measured regeneration of Figure 1 (Table 1 is regenerated beside the
// systems it measures, in internal/systems), a policy engine that
// walks the security/cost trade-off the paper says archives are stuck
// with, and a Vault facade that composes an encoding with dispersal,
// integrity chains, and renewal.
//
// The Encoding interface deliberately spans the whole spectrum —
// replication (no confidentiality) through leakage-resilient secret
// sharing (strongest) — so that cost and security can be measured on the
// same axis, which is exactly what the paper's Figure 1 sketches
// qualitatively.
package core

import (
	"errors"
	"fmt"
	"io"

	"securearchive/internal/aont"
	"securearchive/internal/cascade"
	"securearchive/internal/entropic"
	"securearchive/internal/lrss"
	"securearchive/internal/packed"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
)

// Errors returned by this package.
var (
	ErrBadEncoding  = errors.New("core: invalid encoding parameters")
	ErrDecodeFailed = errors.New("core: decode failed")
	ErrEmptyData    = errors.New("core: empty data")
)

// Encoded is the dispersal-ready result of encoding one object.
type Encoded struct {
	// PlainLen is the original data length.
	PlainLen int
	// Shards are the node-bound pieces; Decode tolerates nils up to the
	// encoding's redundancy.
	Shards [][]byte
	// ClientSecret is key material the data owner keeps (never stored on
	// archive nodes). For encodings whose secret must itself be archived
	// at full size (OTP-style), the encoding accounts for it in
	// StoredBytes instead.
	ClientSecret []byte
	// PublicMeta is non-secret metadata stored alongside the shards
	// (nonces, seeds); counted into storage cost.
	PublicMeta []byte
}

// StoredBytes is the at-rest footprint: shards plus public metadata.
func (e *Encoded) StoredBytes() int {
	total := len(e.PublicMeta)
	for _, s := range e.Shards {
		total += len(s)
	}
	return total
}

// Overhead is stored bytes per plaintext byte.
func (e *Encoded) Overhead() float64 {
	if e.PlainLen == 0 {
		return 0
	}
	return float64(e.StoredBytes()) / float64(e.PlainLen)
}

// Encoding is one point of Figure 1: a data encoding with a security
// class, a leakage-resilience flag, and measurable storage cost.
type Encoding interface {
	// Name returns the Figure 1 label.
	Name() string
	// Class returns the confidentiality class of the encoding at rest.
	Class() sec.Class
	// LeakageResilient reports resistance to bounded local share leakage.
	LeakageResilient() bool
	// Shards returns (total, minimum-to-decode).
	Shards() (n, min int)
	// Encode produces node-ready shards.
	Encode(data []byte, rnd io.Reader) (*Encoded, error)
	// Decode reconstructs from shards (nil = missing).
	Decode(enc *Encoded) ([]byte, error)
}

// Parallelizable is implemented by encodings whose hot paths can fan out
// across goroutines. WithParallelism returns a copy of the encoding whose
// Encode/Decode use at most n workers; n <= 0 selects GOMAXPROCS and 1
// forces the serial path. Replication is pure copying and not covered.
type Parallelizable interface {
	WithParallelism(n int) Encoding
}

// --- replication ---

// Replication stores n plaintext copies: Figure 1's top-left — maximal
// cost, zero confidentiality, maximal simplicity.
type Replication struct{ N int }

// Name implements Encoding.
func (r Replication) Name() string { return "Replication" }

// Class implements Encoding.
func (r Replication) Class() sec.Class { return sec.None }

// LeakageResilient implements Encoding.
func (r Replication) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (r Replication) Shards() (int, int) { return r.N, 1 }

// Encode implements Encoding.
func (r Replication) Encode(data []byte, _ io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	if r.N < 1 {
		return nil, fmt.Errorf("%w: replication n=%d", ErrBadEncoding, r.N)
	}
	shards := make([][]byte, r.N)
	for i := range shards {
		shards[i] = append([]byte(nil), data...)
	}
	return &Encoded{PlainLen: len(data), Shards: shards}, nil
}

// Decode implements Encoding.
func (r Replication) Decode(enc *Encoded) ([]byte, error) {
	for _, s := range enc.Shards {
		if s != nil {
			return append([]byte(nil), s...), nil
		}
	}
	return nil, fmt.Errorf("%w: no replica available", ErrDecodeFailed)
}

// --- erasure coding ---

// Erasure is k-of-n Reed-Solomon: Figure 1's bottom-left — low cost, no
// confidentiality (systematic shards are plaintext fragments).
type Erasure struct {
	K, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (e Erasure) WithParallelism(n int) Encoding { e.Par = n; return e }

// Name implements Encoding.
func (e Erasure) Name() string { return "Erasure Coding" }

// Class implements Encoding.
func (e Erasure) Class() sec.Class { return sec.None }

// LeakageResilient implements Encoding.
func (e Erasure) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (e Erasure) Shards() (int, int) { return e.N, e.K }

// Encode implements Encoding.
func (e Erasure) Encode(data []byte, _ io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	code, err := rs.Cached(e.K, e.N-e.K, e.Par)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards, err := code.Encode(data)
	if err != nil {
		return nil, err
	}
	return &Encoded{PlainLen: len(data), Shards: shards}, nil
}

// Decode implements Encoding.
func (e Erasure) Decode(enc *Encoded) ([]byte, error) {
	code, err := rs.Cached(e.K, e.N-e.K, e.Par)
	if err != nil {
		return nil, err
	}
	shards := append([][]byte(nil), enc.Shards...)
	if err := code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return code.Join(shards, enc.PlainLen)
}

// --- traditional encryption (+EC for equal availability) ---

// TraditionalEncryption is AES-256-CTR over erasure-coded placement:
// Figure 1's "Traditional Encryption" — low cost, computational security.
type TraditionalEncryption struct {
	K, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (t TraditionalEncryption) WithParallelism(n int) Encoding { t.Par = n; return t }

// Name implements Encoding.
func (t TraditionalEncryption) Name() string { return "Traditional Encryption" }

// Class implements Encoding.
func (t TraditionalEncryption) Class() sec.Class { return sec.Computational }

// LeakageResilient implements Encoding.
func (t TraditionalEncryption) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (t TraditionalEncryption) Shards() (int, int) { return t.N, t.K }

// Encode implements Encoding.
func (t TraditionalEncryption) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	keys, err := cascade.GenerateKeys([]cascade.Scheme{cascade.AES256CTR}, rnd)
	if err != nil {
		return nil, err
	}
	env, err := cascade.Encrypt(data, keys, rnd)
	if err != nil {
		return nil, err
	}
	code, err := rs.Cached(t.K, t.N-t.K, t.Par)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards, err := code.Encode(env.Body)
	if err != nil {
		return nil, err
	}
	return &Encoded{
		PlainLen:     len(data),
		Shards:       shards,
		ClientSecret: keys[0].Key,
		PublicMeta:   env.Layers[0].Nonce,
	}, nil
}

// Decode implements Encoding.
func (t TraditionalEncryption) Decode(enc *Encoded) ([]byte, error) {
	code, err := rs.Cached(t.K, t.N-t.K, t.Par)
	if err != nil {
		return nil, err
	}
	shards := append([][]byte(nil), enc.Shards...)
	if err := code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	// Ciphertext length == plaintext length for the stream cipher.
	body, err := code.Join(shards, enc.PlainLen)
	if err != nil {
		return nil, err
	}
	env := &cascade.Envelope{
		Layers: []cascade.Layer{{Scheme: cascade.AES256CTR, Nonce: enc.PublicMeta}},
		Body:   body,
	}
	return cascade.Decrypt(env, []cascade.LayerKey{{Scheme: cascade.AES256CTR, Key: enc.ClientSecret}})
}

// --- cascade encryption ---

// CascadeEncryption layers all registered cipher families over EC
// placement: ArchiveSafeLT's encoding as a Figure 1 point. Same cost band
// as traditional encryption, hedged against single-family breaks.
type CascadeEncryption struct {
	K, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (c CascadeEncryption) WithParallelism(n int) Encoding { c.Par = n; return c }

// Name implements Encoding.
func (c CascadeEncryption) Name() string { return "Cascade Encryption" }

// Class implements Encoding.
func (c CascadeEncryption) Class() sec.Class { return sec.Computational }

// LeakageResilient implements Encoding.
func (c CascadeEncryption) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (c CascadeEncryption) Shards() (int, int) { return c.N, c.K }

// Encode implements Encoding.
func (c CascadeEncryption) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	keys, err := cascade.GenerateKeys(cascade.Schemes(), rnd)
	if err != nil {
		return nil, err
	}
	env, err := cascade.Encrypt(data, keys, rnd)
	if err != nil {
		return nil, err
	}
	code, err := rs.Cached(c.K, c.N-c.K, c.Par)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards, err := code.Encode(env.Body)
	if err != nil {
		return nil, err
	}
	// Serialise layer nonces and keys compactly.
	var meta, secret []byte
	for _, l := range env.Layers {
		meta = append(meta, byte(len(l.Nonce)))
		meta = append(meta, l.Nonce...)
	}
	for _, k := range keys {
		secret = append(secret, byte(len(k.Key)))
		secret = append(secret, k.Key...)
	}
	return &Encoded{PlainLen: len(data), Shards: shards, ClientSecret: secret, PublicMeta: meta}, nil
}

// Decode implements Encoding.
func (c CascadeEncryption) Decode(enc *Encoded) ([]byte, error) {
	code, err := rs.Cached(c.K, c.N-c.K, c.Par)
	if err != nil {
		return nil, err
	}
	shards := append([][]byte(nil), enc.Shards...)
	if err := code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	body, err := code.Join(shards, enc.PlainLen)
	if err != nil {
		return nil, err
	}
	schemes := cascade.Schemes()
	layers := make([]cascade.Layer, 0, len(schemes))
	meta := enc.PublicMeta
	for _, s := range schemes {
		if len(meta) < 1 {
			return nil, ErrDecodeFailed
		}
		n := int(meta[0])
		if len(meta) < 1+n {
			return nil, ErrDecodeFailed
		}
		layers = append(layers, cascade.Layer{Scheme: s, Nonce: meta[1 : 1+n]})
		meta = meta[1+n:]
	}
	keys := make([]cascade.LayerKey, 0, len(schemes))
	secret := enc.ClientSecret
	for _, s := range schemes {
		if len(secret) < 1 {
			return nil, ErrDecodeFailed
		}
		n := int(secret[0])
		if len(secret) < 1+n {
			return nil, ErrDecodeFailed
		}
		keys = append(keys, cascade.LayerKey{Scheme: s, Key: secret[1 : 1+n]})
		secret = secret[1+n:]
	}
	env := &cascade.Envelope{Layers: layers, Body: body}
	return cascade.Decrypt(env, keys)
}

// --- entropically secure encryption ---

// EntropicEncryption is the Figure 1 "Entropically Secure Encryption"
// point: information-theoretic for high-min-entropy data, with a key
// shorter than the message. The key must be archived too; it is counted
// as stored bytes (spread across the same nodes in a real deployment).
type EntropicEncryption struct {
	K, N int
	// AssumedEntropyBits is the min-entropy the policy asserts for the
	// data; the key length follows the Dodis–Smith bound from it.
	AssumedEntropyBits int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (e EntropicEncryption) WithParallelism(n int) Encoding { e.Par = n; return e }

// Name implements Encoding.
func (e EntropicEncryption) Name() string { return "Entropically Secure Encryption" }

// Class implements Encoding.
func (e EntropicEncryption) Class() sec.Class { return sec.Entropic }

// LeakageResilient implements Encoding.
func (e EntropicEncryption) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (e EntropicEncryption) Shards() (int, int) { return e.N, e.K }

// Encode implements Encoding.
func (e EntropicEncryption) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	keyLen := entropic.KeyLenFor(len(data), e.AssumedEntropyBits, 128)
	key := make([]byte, keyLen)
	if _, err := io.ReadFull(rnd, key); err != nil {
		return nil, err
	}
	ct, err := entropic.Encrypt(data, key, rnd)
	if err != nil {
		return nil, err
	}
	code, err := rs.Cached(e.K, e.N-e.K, e.Par)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards, err := code.Encode(ct.Body)
	if err != nil {
		return nil, err
	}
	// The key is itself long-lived secret material that the archive must
	// hold somewhere ITS-safe; count it as public-meta-sized stored bytes
	// (the accounting choice Figure 1 implies: cost between encryption
	// and OTP).
	meta := append(append([]byte(nil), ct.Seed...), key...)
	return &Encoded{PlainLen: len(data), Shards: shards, PublicMeta: meta, ClientSecret: key}, nil
}

// Decode implements Encoding.
func (e EntropicEncryption) Decode(enc *Encoded) ([]byte, error) {
	code, err := rs.Cached(e.K, e.N-e.K, e.Par)
	if err != nil {
		return nil, err
	}
	shards := append([][]byte(nil), enc.Shards...)
	if err := code.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	body, err := code.Join(shards, enc.PlainLen)
	if err != nil {
		return nil, err
	}
	key := enc.ClientSecret
	seed := enc.PublicMeta[:len(key)]
	return entropic.Decrypt(&entropic.Ciphertext{Seed: seed, Body: body}, key)
}

// --- AONT-RS ---

// AONTRS is the Resch–Plank encoding as a Figure 1 point.
type AONTRS struct {
	K, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (a AONTRS) WithParallelism(n int) Encoding { a.Par = n; return a }

// Name implements Encoding.
func (a AONTRS) Name() string { return "AONT-RS" }

// Class implements Encoding.
func (a AONTRS) Class() sec.Class { return sec.Computational }

// LeakageResilient implements Encoding.
func (a AONTRS) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (a AONTRS) Shards() (int, int) { return a.N, a.K }

// Encode implements Encoding.
func (a AONTRS) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	sch, err := aont.NewScheme(a.K, a.N, rs.WithParallelism(a.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards, pkgLen, err := sch.Encode(data)
	if err != nil {
		return nil, err
	}
	meta := []byte{byte(pkgLen >> 24), byte(pkgLen >> 16), byte(pkgLen >> 8), byte(pkgLen)}
	return &Encoded{PlainLen: len(data), Shards: shards, PublicMeta: meta}, nil
}

// Decode implements Encoding.
func (a AONTRS) Decode(enc *Encoded) ([]byte, error) {
	sch, err := aont.NewScheme(a.K, a.N, rs.WithParallelism(a.Par))
	if err != nil {
		return nil, err
	}
	if len(enc.PublicMeta) != 4 {
		return nil, ErrDecodeFailed
	}
	pkgLen := int(enc.PublicMeta[0])<<24 | int(enc.PublicMeta[1])<<16 | int(enc.PublicMeta[2])<<8 | int(enc.PublicMeta[3])
	shards := append([][]byte(nil), enc.Shards...)
	out, err := sch.Decode(shards, pkgLen, enc.PlainLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return out, nil
}

// --- secret sharing ---

// SecretSharing is (t, n) Shamir: Figure 1's top-right ITS point.
type SecretSharing struct {
	T, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (s SecretSharing) WithParallelism(n int) Encoding { s.Par = n; return s }

// Name implements Encoding.
func (s SecretSharing) Name() string { return "Secret Sharing" }

// Class implements Encoding.
func (s SecretSharing) Class() sec.Class { return sec.IT }

// LeakageResilient implements Encoding.
func (s SecretSharing) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (s SecretSharing) Shards() (int, int) { return s.N, s.T }

// Encode implements Encoding.
func (s SecretSharing) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	shares, err := shamir.Split(data, s.N, s.T, rnd, shamir.WithParallelism(s.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards := make([][]byte, s.N)
	for i, sh := range shares {
		shards[i] = sh.Payload
	}
	return &Encoded{PlainLen: len(data), Shards: shards}, nil
}

// Decode implements Encoding.
func (s SecretSharing) Decode(enc *Encoded) ([]byte, error) {
	shares := make([]shamir.Share, 0, s.T)
	for i, d := range enc.Shards {
		if d == nil {
			continue
		}
		shares = append(shares, shamir.Share{X: byte(i + 1), Threshold: byte(s.T), Payload: d})
		if len(shares) == s.T {
			break
		}
	}
	out, err := shamir.Combine(shares, shamir.WithParallelism(s.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return out, nil
}

// --- packed secret sharing ---

// PackedSharing is Franklin–Yung packed sharing: ITS at ~n/k cost, the
// paper's candidate for the "smiley face" corner.
type PackedSharing struct {
	T, K, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (p PackedSharing) WithParallelism(n int) Encoding { p.Par = n; return p }

// Name implements Encoding.
func (p PackedSharing) Name() string { return "Packed Secret Sharing" }

// Class implements Encoding.
func (p PackedSharing) Class() sec.Class { return sec.IT }

// LeakageResilient implements Encoding.
func (p PackedSharing) LeakageResilient() bool { return false }

// Shards implements Encoding.
func (p PackedSharing) Shards() (int, int) { return p.N, p.T + p.K }

// Encode implements Encoding.
func (p PackedSharing) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	shares, err := packed.Split(data, packed.Params{N: p.N, T: p.T, K: p.K}, rnd, packed.WithParallelism(p.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards := make([][]byte, p.N)
	for i, sh := range shares {
		shards[i] = sh.Payload
	}
	return &Encoded{PlainLen: len(data), Shards: shards}, nil
}

// Decode implements Encoding.
func (p PackedSharing) Decode(enc *Encoded) ([]byte, error) {
	params := packed.Params{N: p.N, T: p.T, K: p.K}
	shares := make([]packed.Share, 0, params.RecoverThreshold())
	for i, d := range enc.Shards {
		if d == nil {
			continue
		}
		shares = append(shares, packed.Share{
			X:         byte(p.K + p.T + i),
			Threshold: byte(p.T),
			PackCount: byte(p.K),
			SecretLen: enc.PlainLen,
			Payload:   d,
		})
		if len(shares) == params.RecoverThreshold() {
			break
		}
	}
	out, err := packed.Combine(shares, packed.WithParallelism(p.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return out, nil
}

// --- leakage-resilient secret sharing ---

// LRSS is the extractor-wrapped sharing: Figure 1's top-right-most point —
// ITS plus local-leakage resilience, at the highest storage cost.
type LRSS struct {
	T, N int
	// Par bounds encode/decode goroutines; see Parallelizable.
	Par int
}

// WithParallelism implements Parallelizable.
func (l LRSS) WithParallelism(n int) Encoding { l.Par = n; return l }

// Name implements Encoding.
func (l LRSS) Name() string { return "Leakage-Resilient Secret Sharing" }

// Class implements Encoding.
func (l LRSS) Class() sec.Class { return sec.IT }

// LeakageResilient implements Encoding.
func (l LRSS) LeakageResilient() bool { return true }

// Shards implements Encoding.
func (l LRSS) Shards() (int, int) { return l.N, l.T }

// lrssParams are the scheme parameters used by this encoding.
func (l LRSS) lrssParams() lrss.Params {
	return lrss.Params{N: l.N, T: l.T, SourceLen: lrss.DefaultSourceLen, Par: l.Par}
}

// Encode implements Encoding. Each shard serialises the party's full LRSS
// share (source, masked share, seed shares).
func (l LRSS) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	if len(data) == 0 {
		return nil, ErrEmptyData
	}
	shares, err := lrss.Split(data, l.lrssParams(), rnd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	shards := make([][]byte, l.N)
	for i, sh := range shares {
		shards[i] = encodeLRSSShare(sh)
	}
	return &Encoded{PlainLen: len(data), Shards: shards}, nil
}

// Decode implements Encoding.
func (l LRSS) Decode(enc *Encoded) ([]byte, error) {
	shares := make([]lrss.Share, 0, l.T)
	for _, d := range enc.Shards {
		if d == nil {
			continue
		}
		sh, err := decodeLRSSShare(d)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
		}
		shares = append(shares, sh)
		if len(shares) == l.T {
			break
		}
	}
	out, err := lrss.Combine(shares, lrss.WithParallelism(l.Par))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecodeFailed, err)
	}
	return out, nil
}
