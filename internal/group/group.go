// Package group provides prime-order subgroups of Z_p^* (Schnorr groups)
// for the discrete-log-based commitments used by the vss and tstamp
// packages.
//
// A Group exposes the prime modulus p, the prime subgroup order q | p−1,
// and two generators g and h of the order-q subgroup whose relative
// discrete logarithm is unknown (h is derived by hashing into the group).
// Pedersen commitments computed over such a group are perfectly
// (information-theoretically) hiding and computationally binding — the
// property LINCOS exploits to keep timestamped data confidential against
// unbounded adversaries.
//
// One instance is provided, Default: a 2048-bit p with a 256-bit q, both
// derived verifiably from a seed (DESIGN.md "Commitment group"). All
// arithmetic is math/big; this repository is stdlib-only by design.
package group

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// Group is the subgroup of prime order q | p−1 of Z_p^*. It carries the
// lazily built fixed-base tables of its generators, so a Group is used
// through the pointer its constructor returned and never copied.
type Group struct {
	P *big.Int // prime modulus
	Q *big.Int // prime subgroup order, q | p−1
	G *big.Int // generator of the order-q subgroup
	H *big.Int // second generator with unknown log_G(H)

	fixedG, fixedH fixedBase
}

var (
	zero = new(big.Int)
	one  = big.NewInt(1)
)

// The production parameters, FIPS 186-4 A.1.1.2 in shape with SHA-256 and
// a domain tag for the seed. With cand(label, c) = hashToInt(defaultSeed ‖
// label ‖ be32(c)) with its top bit set, q is cand("/q", c) with its low
// bit set, 256 bits, at the first c that makes it prime (defaultQCounter),
// and p = X − (X mod 2q) + 1 for X = cand("/p", c), 2048 bits, at the
// first c that makes it a 2048-bit prime (defaultPCounter).
// TestDefaultGroupParameters runs both searches and prints the constants.
const (
	defaultSeed     = "securearchive/group default 2048/256 v1"
	defaultQCounter = 2
	defaultPCounter = 194

	defaultQ = "A151D1CABF36B900E7CDB7E7F0FF2C67EE4E151F90B2D1FE989DBEC2777C8825"
	defaultP = "C15F7701298348A521AD724438DF4B69348F1875AA2472F758754129B89336D8" +
		"4A01BA338CDD8EF88757DD93EA9FE9BBED92FCE8350D5C01212A0AF533E49DB5" +
		"E90074FCC34B2F28F5F35A1B81A64487062BB6264E2ECB604D5413AD9EAC8B3E" +
		"5319524A6E26F8EE3DED6442C016D816FC0B1687CEC0933FA5966AB0FD1B6E1B" +
		"75DB02A2D68E44199533FECF36B518ABF3CDAD39537C8867F58E1A2FA80B9F9A" +
		"9A5E570A8E0896D774CB1D0118563C9EE0592C2F00065B88CB834F478C793B90" +
		"D86606C9C4329A7110A054EE199ED3F1DC1C260332F638BC647FBB6E9D882D11" +
		"DFED67F3B1A22710CEFD8EF99D80BAEE257E4F2E95C787F6A003CCC9AB82BFB1"
)

var (
	defaultOnce  sync.Once
	defaultGroup *Group
)

// hashToInt expands tag to 256·blocks bits: SHA-256(tag ‖ j) for each
// j < blocks, concatenated big-endian.
func hashToInt(tag string, blocks int) *big.Int {
	buf := make([]byte, 0, blocks*sha256.Size)
	for j := 0; j < blocks; j++ {
		d := sha256.Sum256(append([]byte(tag), byte(j)))
		buf = append(buf, d[:]...)
	}
	return new(big.Int).SetBytes(buf)
}

// Default returns the production group: the p and q above, with g and h
// the hashes of two domain tags into Z_p raised to the cofactor (p−1)/q —
// elements of order q whose discrete logarithms, to each other or to
// anything else, nobody knows. The same instance is returned on every call.
func Default() *Group {
	defaultOnce.Do(func() {
		p, _ := new(big.Int).SetString(defaultP, 16)
		q, _ := new(big.Int).SetString(defaultQ, 16)
		cofactor := new(big.Int).Div(new(big.Int).Sub(p, one), q)
		gen := func(tag string) *big.Int {
			return new(big.Int).Exp(hashToInt(defaultSeed+tag, 8), cofactor, p)
		}
		defaultGroup = &Group{P: p, Q: q, G: gen("/g"), H: gen("/h")}
	})
	return defaultGroup
}

// Test returns Default. It stays only because the benchmark module's tests
// still call it (ROADMAP item 1a deletes those calls, then Test).
func Test() *Group { return Default() }

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
func (gr *Group) ExpG(e *big.Int) *big.Int { return gr.ExpGH(e, zero) }

// ExpH returns h^e mod p, e any integer (taken mod q).
func (gr *Group) ExpH(e *big.Int) *big.Int { return gr.ExpGH(zero, e) }

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

// ID names the group in serialised evidence: the hex of the first 16
// bytes of SHA-256 over p ‖ q ‖ g ‖ h, each at p's byte length.
func (gr *Group) ID() string {
	h := sha256.New()
	buf := make([]byte, (gr.P.BitLen()+7)/8)
	for _, x := range []*big.Int{gr.P, gr.Q, gr.G, gr.H} {
		h.Write(x.FillBytes(buf))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ScalarCapacity returns the number of bytes that can be embedded into a
// scalar losslessly (one less than q's byte length).
func (gr *Group) ScalarCapacity() int {
	return (gr.Q.BitLen()+7)/8 - 1
}
