// Package sig provides a registry of digital-signature schemes with
// explicit lifetimes, backing the timestamp-chain integrity layer (§3.3).
//
// The paper's integrity argument rests on *rotation*: any one
// computationally secure signature will eventually fall, but a chain of
// signatures stays trustworthy as long as each signature was applied
// while its scheme was still unbroken. To make that argument executable,
// every scheme here can be marked broken at a simulation epoch, and
// verification is always asked relative to an epoch. Three stdlib scheme
// families are registered — Ed25519, ECDSA-P256, and RSA-PSS-2048 — three
// independent mathematical assumptions for the rotation schedule to walk
// through.
package sig

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
)

// Scheme names a registered signature scheme.
type Scheme string

// Registered schemes.
const (
	Ed25519    Scheme = "ed25519"
	ECDSAP256  Scheme = "ecdsa-p256"
	RSAPSS2048 Scheme = "rsa-pss-2048"
)

// Errors returned by this package.
var (
	ErrUnknownScheme = errors.New("sig: unknown scheme")
	ErrBadSignature  = errors.New("sig: signature verification failed")
	ErrBadKey        = errors.New("sig: malformed key")
)

// KeyPair holds one scheme instance's keys, serialised for storage.
type KeyPair struct {
	Scheme  Scheme
	Public  []byte
	private crypto.Signer
}

// Signer produces and verifies signatures for one scheme.
type Signer interface {
	// Scheme returns the registry name.
	Scheme() Scheme
	// Generate creates a key pair using rnd.
	Generate(rnd io.Reader) (*KeyPair, error)
	// Sign signs the message digest context with the key pair.
	Sign(kp *KeyPair, msg []byte, rnd io.Reader) ([]byte, error)
	// Verify checks a signature against a serialised public key.
	Verify(public, msg, sigBytes []byte) error
}

var registry = map[Scheme]Signer{
	Ed25519:    ed25519Signer{},
	ECDSAP256:  ecdsaSigner{},
	RSAPSS2048: rsaSigner{},
}

// Get returns the Signer for a scheme.
func Get(s Scheme) (Signer, error) {
	sg, ok := registry[s]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, s)
	}
	return sg, nil
}

// ---- Ed25519 ----

type ed25519Signer struct{}

func (ed25519Signer) Scheme() Scheme { return Ed25519 }

func (e ed25519Signer) Generate(rnd io.Reader) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rnd)
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	return &KeyPair{Scheme: Ed25519, Public: pub, private: priv}, nil
}

func (e ed25519Signer) Sign(kp *KeyPair, msg []byte, rnd io.Reader) ([]byte, error) {
	priv, ok := kp.private.(ed25519.PrivateKey)
	if !ok {
		return nil, ErrBadKey
	}
	return ed25519.Sign(priv, msg), nil
}

func (e ed25519Signer) Verify(public, msg, sigBytes []byte) error {
	if len(public) != ed25519.PublicKeySize {
		return ErrBadKey
	}
	if !ed25519.Verify(ed25519.PublicKey(public), msg, sigBytes) {
		return ErrBadSignature
	}
	return nil
}

// ---- ECDSA P-256 ----

type ecdsaSigner struct{}

func (ecdsaSigner) Scheme() Scheme { return ECDSAP256 }

func (ecdsaSigner) Generate(rnd io.Reader) (*KeyPair, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rnd)
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	pub, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	return &KeyPair{Scheme: ECDSAP256, Public: pub, private: priv}, nil
}

func (ecdsaSigner) Sign(kp *KeyPair, msg []byte, rnd io.Reader) ([]byte, error) {
	priv, ok := kp.private.(*ecdsa.PrivateKey)
	if !ok {
		return nil, ErrBadKey
	}
	digest := sha256.Sum256(msg)
	return ecdsa.SignASN1(rnd, priv, digest[:])
}

func (ecdsaSigner) Verify(public, msg, sigBytes []byte) error {
	pubAny, err := x509.ParsePKIXPublicKey(public)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	pub, ok := pubAny.(*ecdsa.PublicKey)
	if !ok {
		return ErrBadKey
	}
	digest := sha256.Sum256(msg)
	if !ecdsa.VerifyASN1(pub, digest[:], sigBytes) {
		return ErrBadSignature
	}
	return nil
}

// ---- RSA-PSS 2048 ----

type rsaSigner struct{}

func (rsaSigner) Scheme() Scheme { return RSAPSS2048 }

func (rsaSigner) Generate(rnd io.Reader) (*KeyPair, error) {
	priv, err := rsa.GenerateKey(rnd, 2048)
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	pub, err := x509.MarshalPKIXPublicKey(&priv.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("sig: %w", err)
	}
	return &KeyPair{Scheme: RSAPSS2048, Public: pub, private: priv}, nil
}

func (rsaSigner) Sign(kp *KeyPair, msg []byte, rnd io.Reader) ([]byte, error) {
	priv, ok := kp.private.(*rsa.PrivateKey)
	if !ok {
		return nil, ErrBadKey
	}
	digest := sha256.Sum256(msg)
	return rsa.SignPSS(rnd, priv, crypto.SHA256, digest[:], nil)
}

func (rsaSigner) Verify(public, msg, sigBytes []byte) error {
	pubAny, err := x509.ParsePKIXPublicKey(public)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	pub, ok := pubAny.(*rsa.PublicKey)
	if !ok {
		return ErrBadKey
	}
	digest := sha256.Sum256(msg)
	if err := rsa.VerifyPSS(pub, crypto.SHA256, digest[:], sigBytes, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	return nil
}

// BreakSchedule records the simulation epoch at which each scheme falls to
// cryptanalysis. Schemes absent from the map never break. The adversary
// and timestamp packages share this type.
type BreakSchedule map[Scheme]int

// BrokenAt reports whether s is broken at epoch e.
func (b BreakSchedule) BrokenAt(s Scheme, e int) bool {
	be, ok := b[s]
	return ok && e >= be
}
