// Package vss implements Pedersen verifiable secret sharing (VSS) over a
// prime-order group.
//
// Plain Shamir sharing (package shamir) trusts the dealer and the
// shareholders: a corrupt dealer can hand out inconsistent shares, and a
// corrupt shareholder can return garbage at reconstruction — both attacks
// the paper flags as fatal for the share-renewal phase of proactive secret
// sharing (§3.3). VSS fixes this by publishing commitments to the sharing
// polynomial's coefficients against which every share can be checked.
//
// Feldman VSS publishes A_j = g^{a_j}, which is only computationally
// hiding: g^{secret} leaks under a discrete-log break. Pedersen VSS
// commits C_j = g^{a_j}·h^{b_j} over a companion blinding polynomial
// instead, which is information-theoretically hiding and is the
// sub-protocol the paper names for safeguarding proactive renewal.
//
// Shares here are scalars in Z_q; bulk data takes the GF(256) path
// (shamir, pss) and uses these schemes for keys and per-object secrets,
// mirroring LINCOS.
package vss

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/group"
)

// Errors returned by this package.
var (
	ErrInvalidParams  = errors.New("vss: invalid parameters")
	ErrVerifyFailed   = errors.New("vss: share verification failed")
	ErrTooFewShares   = errors.New("vss: not enough shares")
	ErrDuplicateShare = errors.New("vss: duplicate share index")
)

// Share is one participant's scalar share: the secret polynomial's value
// and the blinding polynomial's value at X.
type Share struct {
	X     int64    // evaluation point, 1..n
	S     *big.Int // f(X) mod q
	Blind *big.Int // f'(X) mod q
}

// Commitments is the public verification vector C_j, one per polynomial
// coefficient, degree order.
type Commitments struct {
	G *group.Group
	C []*big.Int
}

// evalPoly evaluates a polynomial with coefficients coeffs (constant
// first) at x, mod q.
func evalPoly(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	acc := new(big.Int)
	xb := big.NewInt(x)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, xb)
		acc.Add(acc, coeffs[i])
		acc.Mod(acc, q)
	}
	return acc
}

func randPoly(g *group.Group, secret *big.Int, t int, rnd io.Reader) ([]*big.Int, error) {
	coeffs := make([]*big.Int, t)
	coeffs[0] = new(big.Int).Mod(secret, g.Q)
	for j := 1; j < t; j++ {
		c, err := g.RandScalar(rnd)
		if err != nil {
			return nil, err
		}
		coeffs[j] = c
	}
	return coeffs, nil
}

// PedersenSplit shares secret with threshold t, additionally sampling a
// blinding polynomial so the published commitments reveal nothing about
// the secret even to an unbounded adversary. It returns the shares (each
// carrying a blinding share) and the commitment vector.
func PedersenSplit(g *group.Group, secret *big.Int, n, t int, rnd io.Reader) ([]Share, *Commitments, error) {
	blindSecret, err := g.RandScalar(rnd)
	if err != nil {
		return nil, nil, err
	}
	return PedersenSplitWithBlind(g, secret, blindSecret, n, t, rnd)
}

// PedersenSplitWithBlind is PedersenSplit with a caller-chosen blinding
// constant b0 (the blinding polynomial's constant term). Proactive renewal
// uses it to deal verifiable zero-sharings: with secret = 0 the dealer can
// later open b0, proving C_0 = h^{b0} — i.e. that the dealt secret is
// zero — without revealing any other coefficient.
func PedersenSplitWithBlind(g *group.Group, secret, b0 *big.Int, n, t int, rnd io.Reader) ([]Share, *Commitments, error) {
	if err := checkParams(n, t); err != nil {
		return nil, nil, err
	}
	coeffs, err := randPoly(g, secret, t, rnd)
	if err != nil {
		return nil, nil, err
	}
	blind, err := randPoly(g, b0, t, rnd)
	if err != nil {
		return nil, nil, err
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		x := int64(i + 1)
		shares[i] = Share{X: x, S: evalPoly(coeffs, x, g.Q), Blind: evalPoly(blind, x, g.Q)}
	}
	comms := &Commitments{G: g, C: make([]*big.Int, t)}
	for j := range coeffs {
		comms.C[j] = g.Mul(g.ExpG(coeffs[j]), g.ExpH(blind[j]))
	}
	return shares, comms, nil
}

// Verify checks a share against the commitment vector:
//
//	g^{s} · h^{s'}  == Π_j C_j^{x^j}
func Verify(c *Commitments, s Share) error {
	if s.S == nil || s.X <= 0 {
		return fmt.Errorf("%w: malformed share", ErrVerifyFailed)
	}
	if s.Blind == nil {
		return fmt.Errorf("%w: missing blinding share", ErrVerifyFailed)
	}
	g := c.G
	lhs := g.Mul(g.ExpG(s.S), g.ExpH(s.Blind))
	rhs := big.NewInt(1)
	xj := big.NewInt(1)
	x := big.NewInt(s.X)
	for _, cj := range c.C {
		rhs = g.Mul(rhs, g.Exp(cj, xj))
		xj = new(big.Int).Mod(new(big.Int).Mul(xj, x), g.Q)
	}
	if lhs.Cmp(rhs) != 0 {
		return ErrVerifyFailed
	}
	return nil
}

// Combine reconstructs the secret scalar from at least t shares by
// Lagrange interpolation at zero, mod q. Shares are NOT verified here;
// call Verify per share first when the holders are untrusted.
func Combine(g *group.Group, shares []Share, t int) (*big.Int, error) {
	if t < 1 {
		return nil, fmt.Errorf("%w: t=%d", ErrInvalidParams, t)
	}
	if len(shares) < t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), t)
	}
	use := shares[:t]
	seen := make(map[int64]bool, t)
	for _, s := range use {
		if s.X <= 0 || s.S == nil {
			return nil, fmt.Errorf("%w: malformed share", ErrInvalidParams)
		}
		if seen[s.X] {
			return nil, fmt.Errorf("%w: x=%d", ErrDuplicateShare, s.X)
		}
		seen[s.X] = true
	}
	secret := new(big.Int)
	for i, si := range use {
		li := lagrangeAtZero(use, i, g.Q)
		term := new(big.Int).Mul(li, si.S)
		secret.Add(secret, term)
		secret.Mod(secret, g.Q)
	}
	return secret, nil
}

// lagrangeAtZero computes l_i(0) = Π_{j≠i} x_j / (x_j - x_i) mod q.
func lagrangeAtZero(shares []Share, i int, q *big.Int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(shares[i].X)
	for j, sj := range shares {
		if j == i {
			continue
		}
		xj := big.NewInt(sj.X)
		num.Mul(num, xj)
		num.Mod(num, q)
		d := new(big.Int).Sub(xj, xi)
		d.Mod(d, q)
		den.Mul(den, d)
		den.Mod(den, q)
	}
	den.ModInverse(den, q)
	out := new(big.Int).Mul(num, den)
	return out.Mod(out, q)
}

func checkParams(n, t int) error {
	if t < 1 || t > n {
		return fmt.Errorf("%w: t=%d n=%d", ErrInvalidParams, t, n)
	}
	return nil
}
