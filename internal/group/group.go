// Package group provides a prime-order subgroup of Z_p^* (a Schnorr group)
// for the discrete-log-based commitments used by the vss and tstamp
// packages.
//
// A Group exposes the safe prime p = 2q+1, the subgroup order q, and two
// generators g and h of the order-q subgroup of quadratic residues whose
// relative discrete logarithm is unknown (h is derived by hashing into the
// group). Pedersen commitments computed over such a group are perfectly
// (information-theoretically) hiding and computationally binding — the
// property LINCOS exploits to keep timestamped data confidential against
// unbounded adversaries.
//
// Two instances are provided: Default (the 2048-bit MODP group from RFC
// 3526, whose modulus is a safe prime) for production-sized benchmarks,
// and Test (a deterministically generated 256-bit group) for fast unit
// tests. All arithmetic is math/big; this repository is stdlib-only by
// design.
package group

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// ErrNotInGroup is returned when an element fails subgroup membership.
var ErrNotInGroup = errors.New("group: element not in prime-order subgroup")

// Group is a prime-order-q subgroup of Z_p^*, p = 2q+1. It carries the
// lazily built fixed-base tables of its generators, so a Group is used
// through the pointer its constructor returned and never copied.
type Group struct {
	P *big.Int // safe prime modulus
	Q *big.Int // subgroup order, (P-1)/2
	G *big.Int // generator of the order-q subgroup
	H *big.Int // second generator with unknown log_G(H)

	fixedG, fixedH fixedBase
}

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// rfc3526Prime2048 is the 2048-bit MODP group modulus (RFC 3526 §3),
// a safe prime: p = 2^2048 - 2^1984 - 1 + 2^64 * ( [2^1918 pi] + 124476 ).
const rfc3526Prime2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

var (
	defaultOnce  sync.Once
	defaultGroup *Group
	testOnce     sync.Once
	testGroup    *Group
)

// Default returns the production group: the RFC 3526 2048-bit safe-prime
// modulus with g = 4 (a quadratic residue, hence of order q) and h derived
// by hashing into the group. The same instance is returned on every call.
func Default() *Group {
	defaultOnce.Do(func() {
		p, ok := new(big.Int).SetString(rfc3526Prime2048, 16)
		if !ok {
			panic("group: bad built-in prime constant")
		}
		defaultGroup = fromSafePrime(p)
	})
	return defaultGroup
}

// Test returns a small (256-bit) group generated deterministically, for
// unit tests where 2048-bit exponentiations would dominate runtime. Its
// parameters are far too small for real security. The same instance is
// returned on every call.
func Test() *Group {
	testOnce.Do(func() {
		// Deterministic search: find the first safe prime p = 2q+1 with q
		// prime, scanning odd candidates from a fixed 256-bit start.
		q := new(big.Int).Lsh(one, 254)
		q.Add(q, big.NewInt(297)) // fixed offset; makes q odd
		for {
			if q.ProbablyPrime(32) {
				p := new(big.Int).Lsh(q, 1)
				p.Add(p, one)
				if p.ProbablyPrime(32) {
					testGroup = fromSafePrime(p)
					return
				}
			}
			q.Add(q, two)
		}
	})
	return testGroup
}

// fromSafePrime builds a Group from a safe prime p, with g = 4 and h
// hashed into the quadratic-residue subgroup.
func fromSafePrime(p *big.Int) *Group {
	q := new(big.Int).Sub(p, one)
	q.Rsh(q, 1)
	g := big.NewInt(4) // 2^2: a QR, so order divides q; q prime and g != 1 → order q
	// Derive h with an unknown discrete log: hash a domain tag to bytes,
	// reduce mod p, square to land in QR(p). Nothing-up-my-sleeve.
	seed := sha256.Sum256([]byte("securearchive/group h-generator v1"))
	hBase := new(big.Int).SetBytes(seed[:])
	for {
		h := new(big.Int).Exp(hBase, two, p)
		if h.Cmp(one) != 0 && h.Cmp(g) != 0 {
			return &Group{P: p, Q: q, G: g, H: h}
		}
		hBase.Add(hBase, one)
	}
}

// RandScalar returns a uniformly random element of Z_q read from rnd.
func (gr *Group) RandScalar(rnd io.Reader) (*big.Int, error) {
	// Rejection sampling over ceil(len(q) bits) keeps the output uniform.
	byteLen := (gr.Q.BitLen() + 7) / 8
	excess := byteLen*8 - gr.Q.BitLen()
	buf := make([]byte, byteLen)
	for {
		if _, err := io.ReadFull(rnd, buf); err != nil {
			return nil, fmt.Errorf("group: reading randomness: %w", err)
		}
		buf[0] &= 0xFF >> excess
		k := new(big.Int).SetBytes(buf)
		if k.Cmp(gr.Q) < 0 {
			return k, nil
		}
	}
}

// Exp returns base^e mod p.
func (gr *Group) Exp(base, e *big.Int) *big.Int {
	return new(big.Int).Exp(base, e, gr.P)
}

// ExpG returns g^e mod p, e any integer (taken mod q).
func (gr *Group) ExpG(e *big.Int) *big.Int { return gr.expFixed(&gr.fixedG, gr.G, e) }

// ExpH returns h^e mod p, e any integer (taken mod q).
func (gr *Group) ExpH(e *big.Int) *big.Int { return gr.expFixed(&gr.fixedH, gr.H, e) }

// Mul returns a*b mod p.
func (gr *Group) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), gr.P)
}

// Contains reports whether x is a member of the order-q subgroup:
// 0 < x < p and x^q ≡ 1 (mod p).
func (gr *Group) Contains(x *big.Int) bool {
	if x == nil || x.Sign() <= 0 || x.Cmp(gr.P) >= 0 {
		return false
	}
	return new(big.Int).Exp(x, gr.Q, gr.P).Cmp(one) == 0
}

// ReduceScalar maps arbitrary bytes to a scalar in Z_q. Used to embed
// secrets and message digests into the exponent field. The reduction is
// not uniform for inputs near q but is injective for inputs shorter than
// q's byte length, which is how the vss package embeds bounded secrets.
func (gr *Group) ReduceScalar(b []byte) *big.Int {
	return new(big.Int).Mod(new(big.Int).SetBytes(b), gr.Q)
}

// ScalarCapacity returns the number of bytes that can be embedded into a
// scalar losslessly (one less than q's byte length).
func (gr *Group) ScalarCapacity() int {
	return (gr.Q.BitLen()+7)/8 - 1
}
