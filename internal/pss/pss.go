// Package pss implements proactive secret sharing: the periodic
// re-randomisation of shares that defeats the mobile adversary of
// Ostrovsky & Yung, and the verifiable share *redistribution* of Wong,
// Wang & Wing that additionally lets the shareholder committee change
// size and threshold.
//
// The paper (§3.2) identifies proactive secret-shared datastores as "the
// leading (and only) approach" for long-term information-theoretic
// confidentiality at rest — and immediately names their two costs: every
// renewal round is all-to-all (Θ(n²) messages carrying share-sized
// payloads), and renewal of many objects in a short window hits the same
// I/O wall as re-encryption. This package implements the protocols
// faithfully enough to *measure* those costs (experiment E6 in DESIGN.md).
//
// Two committee types are provided:
//
//   - DataCommittee refreshes bulk GF(2^8) Shamir shares (Herzberg-style
//     zero-sharing). Dealings carry SHA-256 commitments that let receivers
//     detect substitution — the "verifiable secret sharing as a
//     sub-protocol" the paper describes, instantiated with hash
//     commitments (computational integrity is acceptable long-term per
//     §3.3, since it only needs to hold until the next renewal).
//
//   - ScalarCommittee (scalar.go) refreshes scalar secrets in Z_q under
//     full Pedersen-VSS verification, including a zero-knowledge proof
//     that renewal dealings share zero (opening only the blinding
//     exponent of C_0). This is the information-theoretically hiding
//     construction LINCOS-class systems use for keys.
package pss

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"securearchive/internal/gf256"
	"securearchive/internal/shamir"
)

// Errors returned by this package.
var (
	ErrInvalidParams  = errors.New("pss: invalid parameters")
	ErrCommitMismatch = errors.New("pss: dealing does not match its commitment")
	ErrNotZeroSharing = errors.New("pss: dealing does not share zero")
	ErrWrongCommittee = errors.New("pss: share does not belong to this committee")
	ErrTooFewHolders  = errors.New("pss: not enough holders to reconstruct")
)

// CommStats accumulates protocol traffic, the measurable cost the paper
// warns about.
type CommStats struct {
	Messages  int   // point-to-point messages sent
	Bytes     int64 // payload bytes across all messages
	Broadcast int64 // bytes of broadcast (commitments)
	Rounds    int   // protocol rounds executed
}

func (s *CommStats) add(o CommStats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Broadcast += o.Broadcast
	s.Rounds += o.Rounds
}

// DataCommittee holds one secret-shared object across n simulated
// shareholders and supports proactive renewal and redistribution.
// It is a protocol simulator: all "holders" live in one process, but
// every byte that would cross the network is accounted in Stats.
type DataCommittee struct {
	N, T      int
	SecretLen int
	Epoch     int
	Shares    []shamir.Share // index i belongs to holder i
	Stats     CommStats
}

// NewDataCommittee splits secret across n holders with threshold t.
func NewDataCommittee(secret []byte, n, t int, rnd io.Reader) (*DataCommittee, error) {
	shares, err := shamir.Split(secret, n, t, rnd)
	if err != nil {
		return nil, err
	}
	return &DataCommittee{N: n, T: t, SecretLen: len(secret), Shares: shares}, nil
}

// Reconstruct recovers the secret from the holders with the given indices
// (0-based). At least T distinct holders are required.
func (c *DataCommittee) Reconstruct(holders ...int) ([]byte, error) {
	if len(holders) < c.T {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewHolders, len(holders), c.T)
	}
	sel := make([]shamir.Share, 0, len(holders))
	for _, h := range holders {
		if h < 0 || h >= c.N {
			return nil, fmt.Errorf("%w: holder %d", ErrWrongCommittee, h)
		}
		sel = append(sel, c.Shares[h])
	}
	return shamir.Combine(sel)
}

// Dealing is one holder's renewal contribution: a zero-sharing δ with
// δ(0) = 0, one subshare per holder, plus broadcast hash commitments.
type Dealing struct {
	Dealer      int
	SubShares   []shamir.Share      // SubShares[j] goes to holder j
	Commitments [][sha256.Size]byte // Commitments[j] = H(SubShares[j])
}

// commitSubShare hashes a subshare for the dealing broadcast.
func commitSubShare(s shamir.Share) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{s.X, s.Threshold})
	h.Write(s.Payload)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// deal produces holder d's zero-sharing for the current committee.
func (c *DataCommittee) deal(d int, rnd io.Reader) (Dealing, error) {
	zero := make([]byte, c.SecretLen)
	sub, err := shamir.Split(zero, c.N, c.T, rnd)
	if err != nil {
		return Dealing{}, err
	}
	dl := Dealing{Dealer: d, SubShares: sub, Commitments: make([][sha256.Size]byte, c.N)}
	for j := range sub {
		dl.Commitments[j] = commitSubShare(sub[j])
	}
	return dl, nil
}

// VerifyDealingFor checks that the subshare addressed to holder j matches
// the dealer's broadcast commitment. This is what each honest holder runs
// on receipt; it detects substitution in transit or a dealer equivocating
// between the broadcast and the private message.
func VerifyDealingFor(dl Dealing, j int) error {
	if j < 0 || j >= len(dl.SubShares) {
		return fmt.Errorf("%w: holder %d", ErrWrongCommittee, j)
	}
	if commitSubShare(dl.SubShares[j]) != dl.Commitments[j] {
		return fmt.Errorf("%w: dealer %d → holder %d", ErrCommitMismatch, dl.Dealer, j)
	}
	return nil
}

// Renew executes one Herzberg renewal round: every holder deals a
// zero-sharing, every holder verifies what it received against the
// broadcast commitments, and each share becomes the sum of the old share
// and all received subshares. Old shares (and any shares an adversary
// stole in earlier epochs) become useless: they lie on a polynomial that
// no longer exists.
func (c *DataCommittee) Renew(rnd io.Reader) error {
	dealings := make([]Dealing, c.N)
	for d := 0; d < c.N; d++ {
		dl, err := c.deal(d, rnd)
		if err != nil {
			return err
		}
		dealings[d] = dl
		// Traffic: n-1 private subshare messages + commitment broadcast.
		c.Stats.Messages += c.N - 1
		c.Stats.Bytes += int64((c.N - 1) * (len(dl.SubShares[0].Payload) + 2))
		c.Stats.Broadcast += int64(c.N * sha256.Size)
	}
	// Receipt verification.
	for j := 0; j < c.N; j++ {
		for d := 0; d < c.N; d++ {
			if err := VerifyDealingFor(dealings[d], j); err != nil {
				return err
			}
		}
	}
	// Share update: share_j += Σ_d δ_d(x_j).
	for j := 0; j < c.N; j++ {
		p := c.Shares[j].Payload
		for d := 0; d < c.N; d++ {
			sub := dealings[d].SubShares[j].Payload
			for k := range p {
				p[k] ^= sub[k]
			}
		}
	}
	c.Epoch++
	c.Stats.Rounds++
	return nil
}

// Redistribute runs the Wong–Wang–Wing verifiable redistribution protocol
// to a fresh committee with parameters (nNew, tNew): each old holder
// sub-shares its share under the new parameters; each new holder combines
// subshares from tOld old holders using Lagrange coefficients at zero.
// The old committee's shares are invalidated (zeroed) on success: a mobile
// adversary must now start corrupting the new committee from scratch, and
// the sharing parameters can grow or shrink with the threat model.
func (c *DataCommittee) Redistribute(nNew, tNew int, rnd io.Reader) (*DataCommittee, error) {
	if tNew < 1 || tNew > nNew || nNew > shamir.MaxShares {
		return nil, fmt.Errorf("%w: nNew=%d tNew=%d", ErrInvalidParams, nNew, tNew)
	}
	// Old holders participating: the first tOld (any tOld would do).
	dealers := c.Shares[:c.T]
	xsOld := make([]byte, c.T)
	for i, s := range dealers {
		xsOld[i] = s.X
	}

	// Each dealer sub-shares its payload under (tNew, nNew).
	subs := make([][]shamir.Share, c.T) // subs[i][j]: dealer i → new holder j
	for i, ds := range dealers {
		ss, err := shamir.Split(ds.Payload, nNew, tNew, rnd)
		if err != nil {
			return nil, err
		}
		subs[i] = ss
		c.Stats.Messages += nNew
		c.Stats.Bytes += int64(nNew * (len(ds.Payload) + 2))
		c.Stats.Broadcast += int64(nNew * sha256.Size) // commitment broadcast
	}

	// New holder j combines: newShare_j = Σ_i λ_i · sub_{i,j}, where λ_i
	// are the old committee's Lagrange coefficients at 0. Linearity makes
	// the result a valid (tNew, nNew) sharing of the original secret.
	lambda := lagrangeAtZero(xsOld)
	newShares := make([]shamir.Share, nNew)
	for j := 0; j < nNew; j++ {
		payload := make([]byte, c.SecretLen)
		for i := range dealers {
			mulAcc(lambda[i], subs[i][j].Payload, payload)
		}
		newShares[j] = shamir.Share{X: byte(j + 1), Threshold: byte(tNew), Payload: payload}
	}

	// Invalidate old shares: a holder that kept them learns nothing new,
	// but the simulation models deletion, matching the protocol.
	for i := range c.Shares {
		for k := range c.Shares[i].Payload {
			c.Shares[i].Payload[k] = 0
		}
	}

	out := &DataCommittee{
		N: nNew, T: tNew, SecretLen: c.SecretLen,
		Epoch: c.Epoch + 1, Shares: newShares, Stats: c.Stats,
	}
	out.Stats.Rounds++
	return out, nil
}

// RenewalTraffic predicts the bytes one renewal round moves for a
// committee of n holders protecting an object of objLen bytes — the
// analytic Θ(n²·L) the paper cites, exposed so the cost-model package can
// extrapolate to archive scale without running the protocol.
func RenewalTraffic(n int, objLen int) int64 {
	return int64(n*(n-1))*int64(objLen+2) + int64(n*n*sha256.Size)
}

func lagrangeAtZero(xs []byte) []byte {
	return gf256.LagrangeCoeffs(xs, 0)
}

// mulAcc computes dst[i] ^= c·src[i].
func mulAcc(c byte, src, dst []byte) {
	gf256.MulSlice(c, src, dst)
}
