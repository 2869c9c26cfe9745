package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulKnownVectors(t *testing.T) {
	// Vectors from FIPS-197 (AES uses the same field).
	cases := []struct{ a, b, want byte }{
		{0x57, 0x83, 0xC1},
		{0x57, 0x13, 0xFE},
		{0x02, 0x87, 0x15},
		{0x00, 0xFF, 0x00},
		{0x01, 0xAB, 0xAB},
		{0xFF, 0x01, 0xFF},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	if err := quick.Check(func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInvExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%#x) = %#x but product is %#x", a, inv, Mul(byte(a), inv))
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestDivMulRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(int(logTable[a])) != byte(a) {
			t.Fatalf("Exp(log(%#x)) != %#x", a, a)
		}
	}
}

// pow returns a^e through the log/exp tables Mul, Div and Inv read, so
// the Pow tests below check those tables against known powers and
// against repeated multiplication. pow(0, 0) == 1 by convention, and
// negative exponents invert.
func pow(a byte, e int) byte {
	if a == 0 {
		if e == 0 {
			return 1
		}
		return 0
	}
	return Exp(int(logTable[a]) * (e % 255))
}

func TestGeneratorHasFullOrder(t *testing.T) {
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle shorter than 255: repeat at step %d", i)
		}
		seen[x] = true
		x = Mul(x, Generator)
	}
	if x != 1 {
		t.Fatalf("generator^255 = %#x, want 1", x)
	}
}

func TestPow(t *testing.T) {
	cases := []struct {
		a    byte
		e    int
		want byte
	}{
		{0x02, 0, 1},
		{0x02, 1, 0x02},
		{0x02, 8, 0x1B}, // x^8 = poly remainder
		{0x00, 0, 1},
		{0x00, 5, 0},
		{0x03, 255, 1},
	}
	for _, c := range cases {
		if got := pow(c.a, c.e); got != c.want {
			t.Errorf("pow(%#x, %d) = %#x, want %#x", c.a, c.e, got, c.want)
		}
	}
	// Negative exponent inverts.
	for a := 1; a < 256; a++ {
		if pow(byte(a), -1) != Inv(byte(a)) {
			t.Fatalf("pow(%#x, -1) != Inv", a)
		}
	}
}

func TestPowMatchesRepeatedMul(t *testing.T) {
	for a := 0; a < 256; a += 7 {
		acc := byte(1)
		for e := 0; e < 20; e++ {
			if got := pow(byte(a), e); got != acc {
				t.Fatalf("pow(%#x, %d) = %#x, want %#x", a, e, got, acc)
			}
			acc = Mul(acc, byte(a))
		}
	}
}

func TestMulSlice(t *testing.T) {
	src := []byte{1, 2, 3, 0, 255}
	dst := []byte{10, 20, 30, 40, 50}
	want := make([]byte, len(src))
	for i := range src {
		want[i] = dst[i] ^ Mul(0x5A, src[i])
	}
	MulSlice(0x5A, src, dst)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("MulSlice mismatch at %d: got %#x want %#x", i, dst[i], want[i])
		}
	}
}

func TestMulSliceSpecialCoefficients(t *testing.T) {
	src := []byte{7, 8, 9}
	dst := []byte{1, 2, 3}
	MulSlice(0, src, dst)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatal("MulSlice with c=0 modified dst")
	}
	MulSlice(1, src, dst)
	if dst[0] != 1^7 || dst[1] != 2^8 || dst[2] != 3^9 {
		t.Fatal("MulSlice with c=1 is not plain XOR")
	}
}

func TestMulSliceAssign(t *testing.T) {
	src := []byte{0x12, 0x00, 0xFF}
	dst := make([]byte, 3)
	MulSliceAssign(0x37, src, dst)
	for i := range src {
		if dst[i] != Mul(0x37, src[i]) {
			t.Fatalf("MulSliceAssign mismatch at %d", i)
		}
	}
	MulSliceAssign(0, src, dst)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatal("MulSliceAssign with c=0 did not zero dst")
		}
	}
	MulSliceAssign(1, src, dst)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatal("MulSliceAssign with c=1 did not copy")
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulSlice length mismatch did not panic")
		}
	}()
	MulSlice(1, []byte{1}, []byte{1, 2})
}

func TestEvalPoly(t *testing.T) {
	// f(x) = 5 + 3x + 7x^2
	coeffs := []byte{5, 3, 7}
	for _, x := range []byte{0, 1, 2, 100, 255} {
		want := 5 ^ Mul(3, x) ^ Mul(7, Mul(x, x))
		if got := EvalPoly(coeffs, x); got != want {
			t.Errorf("EvalPoly at %#x = %#x, want %#x", x, got, want)
		}
	}
	if EvalPoly(nil, 9) != 0 {
		t.Error("EvalPoly(nil) != 0")
	}
	if EvalPoly(coeffs, 0) != 5 {
		t.Error("EvalPoly at 0 is not the constant term")
	}
}

// interpolate evaluates at x the polynomial through (xs[i], ys[i]) by
// the Lagrange coefficients shamir and pss reconstruct with.
func interpolate(xs, ys []byte, x byte) byte {
	var acc byte
	for i, l := range LagrangeCoeffs(xs, x) {
		acc ^= Mul(l, ys[i])
	}
	return acc
}

func TestInterpolateRecoversPolynomial(t *testing.T) {
	coeffs := []byte{0xAB, 0x13, 0x99, 0x42} // degree 3
	xs := []byte{1, 2, 3, 4}
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = EvalPoly(coeffs, x)
	}
	// Interpolating at 0 recovers the constant term (the Shamir secret).
	if got := interpolate(xs, ys, 0); got != 0xAB {
		t.Fatalf("interpolate at 0 = %#x, want 0xAB", got)
	}
	// And at any other point it agrees with the polynomial.
	for _, at := range []byte{5, 77, 200} {
		if got, want := interpolate(xs, ys, at), EvalPoly(coeffs, at); got != want {
			t.Fatalf("interpolate at %#x = %#x, want %#x", at, got, want)
		}
	}
}

func TestInterpolateDuplicateXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate x did not panic")
		}
	}()
	LagrangeCoeffs([]byte{1, 1}, 0)
}

func TestLagrangeCoeffsMatchInterpolate(t *testing.T) {
	coeffs := []byte{0x5C, 0xD2, 0x08}
	xs := []byte{3, 9, 27}
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = EvalPoly(coeffs, x)
	}
	lc := LagrangeCoeffs(xs, 0)
	var acc byte
	for i := range lc {
		acc ^= Mul(lc[i], ys[i])
	}
	if acc != coeffs[0] {
		t.Fatalf("LagrangeCoeffs reconstruction = %#x, want %#x", acc, coeffs[0])
	}
	// Basis property: Σ l_i(at) · x_i^k == at^k for k < len(xs).
	at := byte(17)
	lc = LagrangeCoeffs(xs, at)
	for k := 0; k < len(xs); k++ {
		var sum byte
		for i := range xs {
			sum ^= Mul(lc[i], pow(xs[i], k))
		}
		if sum != pow(at, k) {
			t.Fatalf("basis property failed for k=%d", k)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8)|1)
	}
	_ = acc
}

func BenchmarkMulSlice4K(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(0xA7, src, dst)
	}
}
