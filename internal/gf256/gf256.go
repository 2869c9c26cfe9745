// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed as GF(2)[x]/(x^8 + x^4 + x^3 + x + 1), the
// polynomial 0x11B used by AES and most Reed-Solomon deployments. All
// secret-sharing and erasure-coding packages in this repository build on
// this field: Shamir shares are byte-parallel polynomial evaluations, and
// Reed-Solomon codewords are matrix products over it.
//
// Addition (and subtraction) is XOR. Multiplication and inversion are
// table-driven (log/exp tables built at
// package initialisation), which makes them constant-time with respect to
// the *values* involved apart from the zero check; this is the standard
// trade-off taken by storage-system implementations where throughput
// dominates and the field elements are data, not keys.
package gf256

import "fmt"

// Poly is the irreducible polynomial x^8 + x^4 + x^3 + x + 1 defining the
// field, expressed with the x^8 coefficient included (0x11B).
const Poly = 0x11B

// Generator is the primitive element used to build the log/exp tables.
// 0x03 (x+1) is a generator of the multiplicative group of this field.
const Generator = 0x03

// Order is the number of elements in the field.
const Order = 256

// expTable[i] = Generator^i, doubled to avoid mod 255 in Mul;
// logTable[x] = log_Generator(x), logTable[0] unused. They are filled by
// a variable initialiser, not an init function, so that any other
// package-level table derived from Mul is ordered after them by the
// language's dependency analysis (an init function runs after every
// variable initialiser and would leave such a table all zero).
var expTable, logTable = buildLogExp()

func buildLogExp() (exp [512]byte, log [256]byte) {
	x := 1
	for i := 0; i < 255; i++ {
		exp[i] = byte(x)
		log[byte(x)] = byte(i)
		// Multiply x by the generator (x+1): x*3 = x*2 ^ x.
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
		x ^= int(exp[i])
	}
	for i := 255; i < 512; i++ {
		exp[i] = exp[i-255]
	}
	return exp, log
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero: division by zero is
// a programming error, not a data error, everywhere this package is used.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator raised to the power e (mod 255). Exp(0) == 1.
func Exp(e int) byte {
	e %= 255
	if e < 0 {
		e += 255
	}
	return expTable[e]
}

// MulSlice computes dst[i] ^= c * src[i] for all i. It is the inner loop of
// matrix-vector products in the Reed-Solomon and Shamir packages.
// It panics if len(dst) != len(src).
func MulSlice(c byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range src {
			dst[i] ^= src[i]
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}

// MulSliceAssign computes dst[i] = c * src[i] for all i, overwriting dst.
// It panics if len(dst) != len(src).
func MulSliceAssign(c byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSliceAssign length mismatch %d != %d", len(dst), len(src)))
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[lc+int(logTable[s])]
		}
	}
}

// EvalPoly evaluates the polynomial with the given coefficients at x using
// Horner's rule. coeffs[0] is the constant term.
func EvalPoly(coeffs []byte, x byte) byte {
	if len(coeffs) == 0 {
		return 0
	}
	acc := coeffs[len(coeffs)-1]
	for i := len(coeffs) - 2; i >= 0; i-- {
		acc = Mul(acc, x) ^ coeffs[i]
	}
	return acc
}

// LagrangeCoeffs returns the Lagrange basis coefficients l_i(at) for the
// evaluation points xs, so that f(at) = Σ l_i · f(xs[i]) for any polynomial
// f of degree < len(xs). Shamir reconstruction of many byte positions reuses
// these coefficients across the whole share payload.
func LagrangeCoeffs(xs []byte, at byte) []byte {
	out := make([]byte, len(xs))
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if i == j {
				continue
			}
			if xs[i] == xs[j] {
				panic("gf256: LagrangeCoeffs duplicate x coordinate")
			}
			num = Mul(num, at^xs[j])
			den = Mul(den, xs[i]^xs[j])
		}
		out[i] = Div(num, den)
	}
	return out
}
