// Package commit implements the two commitment schemes the paper
// contrasts in §3.3.
//
// A hash commitment C = SHA-256(tag ‖ r ‖ m) is computationally hiding and
// computationally binding: cheap, but a future break of the hash function
// retroactively exposes the committed data — unacceptable inside a
// timestamp chain that must keep archival data confidential for decades.
//
// A Pedersen commitment C = g^m · h^r over a prime-order group is
// *information-theoretically* hiding (every C is consistent with every
// message, for exactly one r each) and computationally binding (opening
// two ways yields log_g h). LINCOS swaps hash commitments for Pedersen
// commitments inside its timestamp chains precisely so that long-term
// integrity evidence never weakens long-term confidentiality; the tstamp
// package in this repository does the same.
package commit

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/group"
)

// ErrVerifyFailed is returned when an opening does not match a commitment.
var ErrVerifyFailed = errors.New("commit: verification failed")

const hashTag = "securearchive/commit/sha256 v1"

// HashCommitment is a computationally hiding, computationally binding
// commitment: C = SHA-256(tag ‖ r ‖ m) with a 32-byte random opening r.
type HashCommitment struct {
	Digest [sha256.Size]byte
}

// HashOpening is the decommitment for a HashCommitment.
type HashOpening struct {
	R       [32]byte
	Message []byte
}

// CommitHash commits to message with fresh randomness from rnd.
func CommitHash(message []byte, rnd io.Reader) (HashCommitment, HashOpening, error) {
	var op HashOpening
	if _, err := io.ReadFull(rnd, op.R[:]); err != nil {
		return HashCommitment{}, HashOpening{}, fmt.Errorf("commit: reading randomness: %w", err)
	}
	op.Message = append([]byte(nil), message...)
	return HashCommitment{Digest: hashCommitDigest(op.R[:], op.Message)}, op, nil
}

// VerifyHash checks an opening against a commitment.
func VerifyHash(c HashCommitment, op HashOpening) error {
	want := hashCommitDigest(op.R[:], op.Message)
	if !hmac.Equal(want[:], c.Digest[:]) {
		return ErrVerifyFailed
	}
	return nil
}

func hashCommitDigest(r, m []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(hashTag))
	h.Write(r)
	var lenBuf [8]byte
	for i, n := 0, len(m); i < 8; i++ {
		lenBuf[i] = byte(n >> (8 * i))
	}
	h.Write(lenBuf[:])
	h.Write(m)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Pedersen is a commitment scheme over a fixed group. The zero value is
// unusable; construct with NewPedersen.
type Pedersen struct {
	G *group.Group
}

// NewPedersen returns a Pedersen scheme over the given group.
func NewPedersen(g *group.Group) *Pedersen {
	return &Pedersen{G: g}
}

// PedersenCommitment is C = g^m · h^r mod p.
type PedersenCommitment struct {
	C *big.Int
}

// PedersenOpening is the decommitment (m, r), both scalars in Z_q.
type PedersenOpening struct {
	M *big.Int
	R *big.Int
}

// Commit commits to the scalar m with fresh randomness.
func (p *Pedersen) Commit(m *big.Int, rnd io.Reader) (PedersenCommitment, PedersenOpening, error) {
	r, err := p.G.RandScalar(rnd)
	if err != nil {
		return PedersenCommitment{}, PedersenOpening{}, err
	}
	return p.CommitWith(m, r), PedersenOpening{M: new(big.Int).Set(m), R: r}, nil
}

// CommitWith computes the commitment deterministically from (m, r), any
// integers (taken mod q).
func (p *Pedersen) CommitWith(m, r *big.Int) PedersenCommitment {
	return PedersenCommitment{C: p.G.ExpGH(m, r)}
}

// Verify checks an opening against a commitment.
func (p *Pedersen) Verify(c PedersenCommitment, op PedersenOpening) error {
	if c.C == nil || op.M == nil || op.R == nil {
		return ErrVerifyFailed
	}
	want := p.CommitWith(op.M, op.R)
	if want.C.Cmp(c.C) != 0 {
		return ErrVerifyFailed
	}
	return nil
}

// Bytes serialises the commitment value.
func (c PedersenCommitment) Bytes() []byte {
	if c.C == nil {
		return nil
	}
	return c.C.Bytes()
}

// PedersenCommitmentFromBytes deserialises a commitment value.
func PedersenCommitmentFromBytes(b []byte) PedersenCommitment {
	return PedersenCommitment{C: new(big.Int).SetBytes(b)}
}
