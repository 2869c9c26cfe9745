package pss

import (
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/group"
	"securearchive/internal/vss"
)

// ScalarCommittee proactively protects a scalar secret in Z_q under full
// Pedersen-VSS verification. This is the construction used for keys and
// per-object secrets: every share is checkable against public commitments
// at all times, renewal dealings carry a proof of zero-sharing, and the
// published commitments are information-theoretically hiding, so even the
// verification material never weakens long-term confidentiality (§3.3).
type ScalarCommittee struct {
	G     *group.Group
	N, T  int
	Epoch int
	// Shares[i] belongs to holder i; Comms verifies all of them.
	Shares []vss.Share
	Comms  *vss.Commitments
	Stats  CommStats
}

// ZeroProof accompanies a renewal dealing: it opens the blinding exponent
// of the constant-term commitment, proving C_0 = h^{b_0}, i.e. the dealt
// constant term is zero, without revealing anything else about the
// polynomial.
type ZeroProof struct {
	B0 *big.Int
}

// ScalarDealing is one holder's verifiable renewal contribution.
type ScalarDealing struct {
	Dealer    int
	SubShares []vss.Share
	Comms     *vss.Commitments
	Zero      ZeroProof
}

// NewScalarCommittee shares the scalar secret (reduced mod q) across n
// holders with threshold t under Pedersen VSS.
func NewScalarCommittee(g *group.Group, secret *big.Int, n, t int, rnd io.Reader) (*ScalarCommittee, error) {
	shares, comms, err := vss.PedersenSplit(g, secret, n, t, rnd)
	if err != nil {
		return nil, err
	}
	return &ScalarCommittee{G: g, N: n, T: t, Shares: shares, Comms: comms}, nil
}

// deal produces holder d's verifiable zero-dealing.
func (c *ScalarCommittee) deal(d int, rnd io.Reader) (ScalarDealing, error) {
	// A Pedersen sharing of 0: coefficients a_0 = 0, blinding b_0 random.
	// PedersenSplit reduces the secret mod q, so passing 0 gives a_0 = 0;
	// the zero proof opens b_0, which we must extract. vss does not expose
	// coefficients, so we deal manually: share zero, then recompute b_0
	// from the constant commitment... which requires knowing b_0. Instead
	// we construct the dealing through PedersenSplitZero below.
	return pedersenZeroDealing(c.G, d, c.N, c.T, rnd)
}

// pedersenZeroDealing builds a Pedersen VSS dealing of the secret 0 along
// with its zero proof. It mirrors vss.PedersenSplit but keeps b_0.
func pedersenZeroDealing(g *group.Group, dealer, n, t int, rnd io.Reader) (ScalarDealing, error) {
	zero := big.NewInt(0)
	// Sample the blinding constant explicitly so it can be opened.
	b0, err := g.RandScalar(rnd)
	if err != nil {
		return ScalarDealing{}, err
	}
	shares, comms, err := vss.PedersenSplitWithBlind(g, zero, b0, n, t, rnd)
	if err != nil {
		return ScalarDealing{}, err
	}
	return ScalarDealing{Dealer: dealer, SubShares: shares, Comms: comms, Zero: ZeroProof{B0: b0}}, nil
}

// VerifyScalarDealing checks a renewal dealing: the zero proof
// (C_0 == h^{b_0}) and the VSS consistency of the subshare addressed to
// holder j.
func VerifyScalarDealing(g *group.Group, dl ScalarDealing, j int) error {
	if dl.Zero.B0 == nil || dl.Comms == nil || len(dl.Comms.C) == 0 {
		return fmt.Errorf("%w: malformed dealing", ErrNotZeroSharing)
	}
	if g.ExpH(dl.Zero.B0).Cmp(dl.Comms.C[0]) != 0 {
		return fmt.Errorf("%w: C_0 != h^b0", ErrNotZeroSharing)
	}
	if j < 0 || j >= len(dl.SubShares) {
		return fmt.Errorf("%w: holder %d", ErrWrongCommittee, j)
	}
	return vss.Verify(dl.Comms, dl.SubShares[j])
}

// Redistribute runs the verifiable redistribution protocol (Wong, Wang &
// Wing) on the scalar committee: the first tOld holders each sub-share
// their (share, blind) pair under Pedersen VSS with the new parameters
// (nNew, tNew); every sub-dealing is verified both internally (VSS
// consistency) and externally (the dealer's constant commitment must
// equal its share's commitment implied by the OLD committee's public
// vector — a dealer cannot substitute a different value). New shares and
// the new public commitment vector follow by Lagrange combination in the
// exponent. The old committee's shares are invalidated.
func (c *ScalarCommittee) Redistribute(nNew, tNew int, rnd io.Reader) (*ScalarCommittee, error) {
	if tNew < 1 || tNew > nNew {
		return nil, fmt.Errorf("%w: nNew=%d tNew=%d", ErrInvalidParams, nNew, tNew)
	}
	g := c.G
	dealers := c.Shares[:c.T]

	type dealing struct {
		shares []vss.Share
		comms  *vss.Commitments
	}
	deals := make([]dealing, c.T)
	scalarBytes := (g.Q.BitLen() + 7) / 8
	for i, ds := range dealers {
		// Dealer i sub-shares S_i with blinding constant Blind_i, so the
		// sub-dealing's C_0 equals g^{S_i} h^{Blind_i} — checkable against
		// the old committee's commitment vector at x = ds.X.
		shares, comms, err := vss.PedersenSplitWithBlind(g, ds.S, ds.Blind, nNew, tNew, rnd)
		if err != nil {
			return nil, err
		}
		implied := big.NewInt(1)
		xj := big.NewInt(1)
		x := big.NewInt(ds.X)
		for _, ck := range c.Comms.C {
			implied = g.Mul(implied, g.Exp(ck, xj))
			xj = new(big.Int).Mod(new(big.Int).Mul(xj, x), g.Q)
		}
		if comms.C[0].Cmp(implied) != 0 {
			return nil, fmt.Errorf("pss: dealer %d sub-shared a value inconsistent with the committee commitments", i)
		}
		for j := range shares {
			if err := vss.Verify(comms, shares[j]); err != nil {
				return nil, fmt.Errorf("pss: dealer %d subshare %d: %w", i, j, err)
			}
		}
		deals[i] = dealing{shares: shares, comms: comms}
		c.Stats.Messages += nNew
		c.Stats.Bytes += int64(nNew * 2 * scalarBytes)
		c.Stats.Broadcast += int64(((g.P.BitLen() + 7) / 8) * tNew)
	}

	// Lagrange coefficients of the dealers' points at zero, mod q.
	lambda := make([]*big.Int, c.T)
	for i := range dealers {
		lambda[i] = scalarLagrangeAtZero(dealers, i, g.Q)
	}

	// New shares: S'_j = Σ_i λ_i · sub_i(j); blinds likewise.
	newShares := make([]vss.Share, nNew)
	for j := 0; j < nNew; j++ {
		s := new(big.Int)
		b := new(big.Int)
		for i := range deals {
			s.Add(s, new(big.Int).Mul(lambda[i], deals[i].shares[j].S))
			b.Add(b, new(big.Int).Mul(lambda[i], deals[i].shares[j].Blind))
		}
		s.Mod(s, g.Q)
		b.Mod(b, g.Q)
		newShares[j] = vss.Share{X: int64(j + 1), S: s, Blind: b}
	}
	// New commitments: C'_k = Π_i (C^i_k)^{λ_i}.
	newC := make([]*big.Int, tNew)
	for k := 0; k < tNew; k++ {
		acc := big.NewInt(1)
		for i := range deals {
			acc = g.Mul(acc, g.Exp(deals[i].comms.C[k], lambda[i]))
		}
		newC[k] = acc
	}

	// Invalidate old shares.
	for i := range c.Shares {
		c.Shares[i].S = new(big.Int)
		c.Shares[i].Blind = new(big.Int)
	}

	out := &ScalarCommittee{
		G: g, N: nNew, T: tNew, Epoch: c.Epoch + 1,
		Shares: newShares,
		Comms:  &vss.Commitments{G: g, C: newC},
		Stats:  c.Stats,
	}
	out.Stats.Rounds++
	return out, nil
}

// scalarLagrangeAtZero computes λ_i(0) for the dealer set, mod q.
func scalarLagrangeAtZero(dealers []vss.Share, i int, q *big.Int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(dealers[i].X)
	for j := range dealers {
		if j == i {
			continue
		}
		xj := big.NewInt(dealers[j].X)
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

// Renew executes one verified renewal round. Every holder deals a
// verifiable zero-sharing; every holder verifies every dealing it is
// affected by; shares and the public commitment vector are updated
// homomorphically. Stolen pre-renewal shares become worthless.
func (c *ScalarCommittee) Renew(rnd io.Reader) error {
	dealings := make([]ScalarDealing, c.N)
	scalarBytes := (c.G.Q.BitLen() + 7) / 8
	commBytes := ((c.G.P.BitLen()+7)/8)*c.T + scalarBytes // C vector + zero proof
	for d := 0; d < c.N; d++ {
		dl, err := c.deal(d, rnd)
		if err != nil {
			return err
		}
		dealings[d] = dl
		c.Stats.Messages += c.N - 1
		c.Stats.Bytes += int64((c.N - 1) * 2 * scalarBytes) // share + blind
		c.Stats.Broadcast += int64(commBytes)
	}
	for j := 0; j < c.N; j++ {
		for d := 0; d < c.N; d++ {
			if err := VerifyScalarDealing(c.G, dealings[d], j); err != nil {
				return fmt.Errorf("dealer %d rejected by holder %d: %w", d, j, err)
			}
		}
	}
	// Update shares: s_j += Σ_d δ_d(j); blinds likewise. Update public
	// commitments: C_k *= Π_d C^d_k (Pedersen homomorphism).
	for j := 0; j < c.N; j++ {
		s := new(big.Int).Set(c.Shares[j].S)
		b := new(big.Int).Set(c.Shares[j].Blind)
		for d := 0; d < c.N; d++ {
			s.Add(s, dealings[d].SubShares[j].S)
			b.Add(b, dealings[d].SubShares[j].Blind)
		}
		s.Mod(s, c.G.Q)
		b.Mod(b, c.G.Q)
		c.Shares[j] = vss.Share{X: c.Shares[j].X, S: s, Blind: b}
	}
	newC := make([]*big.Int, c.T)
	for k := 0; k < c.T; k++ {
		acc := new(big.Int).Set(c.Comms.C[k])
		for d := 0; d < c.N; d++ {
			acc = c.G.Mul(acc, dealings[d].Comms.C[k])
		}
		newC[k] = acc
	}
	c.Comms = &vss.Commitments{G: c.G, C: newC}
	c.Epoch++
	c.Stats.Rounds++
	return nil
}
