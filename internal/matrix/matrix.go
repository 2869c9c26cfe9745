// Package matrix implements dense matrices over GF(2^8).
//
// It provides exactly the linear algebra the Reed-Solomon layer needs:
// Cauchy parity matrices, row selection and Gauss-Jordan inversion.
// Matrices are small (dimensions are node
// counts, typically < 64), so clarity is preferred over blocking or SIMD;
// the per-byte throughput-critical loops live in package gf256.
package matrix

import (
	"errors"
	"fmt"

	"securearchive/internal/gf256"
)

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte // len == rows*cols
}

// New returns a zero matrix of the given dimensions. It panics if either
// dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Cauchy returns the len(xs)-by-len(ys) Cauchy matrix with entry
// (i, j) = 1 / (xs[i] + ys[j]). All xs and ys must be pairwise distinct
// across both slices; it panics if xs[i] == ys[j] for any pair. Every
// square submatrix of a Cauchy matrix is invertible, which makes it the
// preferred parity matrix for systematic Reed-Solomon codes.
func Cauchy(xs, ys []byte) *Matrix {
	m := New(len(xs), len(ys))
	for i, x := range xs {
		for j, y := range ys {
			if x == y {
				panic("matrix: Cauchy with xs[i] == ys[j]")
			}
			m.Set(i, j, gf256.Inv(x^y))
		}
	}
	return m
}

// At returns the entry at (r, c).
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set assigns the entry at (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns the r-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// String renders the matrix in hex, one row per line.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%02x", m.At(r, c))
		}
		s += "\n"
	}
	return s
}

// SubMatrix returns the matrix consisting of the given rows (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := New(len(rows), m.cols)
	for i, r := range rows {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: SubMatrix row %d out of range", r))
		}
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination, or ErrSingular if the matrix has no inverse.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: cannot invert %dx%d non-square matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to make the pivot 1.
		if p := a.At(col, col); p != 1 {
			pi := gf256.Inv(p)
			scaleRow(a, col, pi)
			scaleRow(inv, col, pi)
		}
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			ft := gf256.MulTable(f)
			gf256.MulSliceWith(ft, a.Row(col), a.Row(r))
			gf256.MulSliceWith(ft, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(m *Matrix, r int, c byte) {
	row := m.Row(r)
	gf256.MulSliceAssignTable(c, row, row)
}
