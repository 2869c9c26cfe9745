package matrix

import (
	"errors"
	"math/rand"
	"testing"

	"securearchive/internal/gf256"
)

// fromRows, vandermonde, mul and equal are the reference constructions
// and product the tests check Identity, Invert and Cauchy against.
func fromRows(rows [][]byte) *Matrix {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func vandermonde(xs []byte, cols int) *Matrix {
	m := New(len(xs), cols)
	for i, x := range xs {
		v := byte(1)
		for j := 0; j < cols; j++ {
			m.Set(i, j, v)
			v = gf256.Mul(v, x)
		}
	}
	return m
}

func mul(a, b *Matrix) *Matrix {
	out := New(a.rows, b.cols)
	for r := 0; r < a.rows; r++ {
		for c := 0; c < b.cols; c++ {
			var acc byte
			for k := 0; k < a.cols; k++ {
				acc ^= gf256.Mul(a.At(r, k), b.At(k, c))
			}
			out.Set(r, c, acc)
		}
	}
	return out
}

func equal(a, b *Matrix) bool {
	return a.rows == b.rows && a.cols == b.cols && string(a.data) == string(b.data)
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, byte(rng.Intn(256)))
		}
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 5, 5)
	if !equal(mul(Identity(5), m), m) {
		t.Fatal("I * M != M")
	}
	if !equal(mul(m, Identity(5)), m) {
		t.Fatal("M * I != M")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 8; n++ {
		for trial := 0; trial < 20; trial++ {
			m := randMatrix(rng, n, n)
			inv, err := m.Invert()
			if errors.Is(err, ErrSingular) {
				continue // random singular matrices are fine to skip
			}
			if err != nil {
				t.Fatal(err)
			}
			if !equal(mul(m, inv), Identity(n)) {
				t.Fatalf("M * M^-1 != I for n=%d", n)
			}
			if !equal(mul(inv, m), Identity(n)) {
				t.Fatalf("M^-1 * M != I for n=%d", n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := fromRows([][]byte{
		{1, 2},
		{2, 4}, // 2 * row 0 in GF(256): 2*1=2, 2*2=4
	})
	if _, err := m.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	zero := New(3, 3)
	if _, err := zero.Invert(); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular for zero matrix, got %v", err)
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("inverting non-square matrix did not fail")
	}
}

func TestVandermondeFullRank(t *testing.T) {
	xs := []byte{1, 2, 3, 4, 5}
	v := vandermonde(xs, 5)
	inv, err := v.Invert()
	if err != nil {
		t.Fatalf("square Vandermonde with distinct xs must be invertible: %v", err)
	}
	if !equal(mul(v, inv), Identity(5)) {
		t.Fatal("V * V^-1 != I")
	}
}

func TestCauchyEverySquareSubmatrixInvertible(t *testing.T) {
	xs := []byte{1, 2, 3, 4}
	ys := []byte{5, 6, 7, 8}
	m := Cauchy(xs, ys)
	// All 2x2 submatrices (choose 2 rows, 2 cols) must be invertible.
	for r0 := 0; r0 < 4; r0++ {
		for r1 := r0 + 1; r1 < 4; r1++ {
			for c0 := 0; c0 < 4; c0++ {
				for c1 := c0 + 1; c1 < 4; c1++ {
					sub := fromRows([][]byte{
						{m.At(r0, c0), m.At(r0, c1)},
						{m.At(r1, c0), m.At(r1, c1)},
					})
					if _, err := sub.Invert(); err != nil {
						t.Fatalf("Cauchy 2x2 submatrix (%d,%d)x(%d,%d) singular", r0, r1, c0, c1)
					}
				}
			}
		}
	}
}

func TestCauchyOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for xs ∩ ys ≠ ∅")
		}
	}()
	Cauchy([]byte{1, 2}, []byte{2, 3})
}

func TestSubMatrix(t *testing.T) {
	m := fromRows([][]byte{{1, 2}, {3, 4}, {5, 6}})
	s := m.SubMatrix([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(0, 1) != 6 || s.At(1, 0) != 1 || s.At(1, 1) != 2 {
		t.Fatal("SubMatrix selected wrong rows")
	}
}

func TestStringFormat(t *testing.T) {
	m := fromRows([][]byte{{0x0A, 0xFF}})
	if m.String() != "0a ff\n" {
		t.Fatalf("String() = %q", m.String())
	}
}

func BenchmarkInvert16(b *testing.B) {
	xs := make([]byte, 16)
	for i := range xs {
		xs[i] = byte(i + 1)
	}
	m := vandermonde(xs, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}
