package gf256

// This file holds the bulk kernels that the coding layers (rs, shamir,
// packed, lrss, aont via rs) run their hot loops on. The scalar
// MulSlice/MulSliceAssign in gf256.go are retained unchanged as a
// reference oracle; the kernels here are differentially tested against
// them and exist purely for throughput:
//
//   - A full 64 KiB product table (256 rows of 256 bytes) is built once,
//     lazily, so every coefficient's multiplication table is a pointer
//     into shared memory — MulTable(c) never allocates.
//   - The portable multiply kernels (the *Generic functions) are
//     branch-free per byte: one table load per byte, no zero checks, with
//     results assembled into 8-byte words so the destination is read and
//     written one uint64 at a time; their XOR processes 8-byte words.
//   - On amd64 with AVX2 (kernels_amd64.go) the entry points hand the
//     leading multiple of 32 bytes to a nibble-table VPSHUFB kernel and
//     only the tail to the portable one. Everywhere else the portable
//     kernel does all of it. The choice is made once, from CPUID.
//
// All kernels tolerate src == dst exactly aliased (the Horner in-place
// pattern); partially overlapping slices are not supported, matching the
// scalar functions.

import (
	"encoding/binary"
	"fmt"
	"sync"
)

var (
	fullTableOnce sync.Once
	fullTable     *[256][256]byte
)

// buildFullTable constructs the 64 KiB table of all pairwise products.
// Row 0 is all zeros; row 1 is the identity permutation.
func buildFullTable() {
	var t [256][256]byte
	for c := 1; c < 256; c++ {
		lc := int(logTable[c])
		row := &t[c]
		for s := 1; s < 256; s++ {
			row[s] = expTable[lc+int(logTable[s])]
		}
	}
	fullTable = &t
}

// MulTable returns the 256-byte multiplication table for coefficient c:
// MulTable(c)[x] == Mul(c, x) for all x. The returned pointer aliases a
// lazily built, cached 64 KiB full table shared by all callers; callers
// that apply the same coefficient repeatedly (generator-matrix rows,
// Lagrange coefficients) hold on to the pointer and feed it to
// MulSliceWith / MulSliceAssignWith.
func MulTable(c byte) *[256]byte {
	fullTableOnce.Do(buildFullTable)
	return &fullTable[c]
}

// AddSlice computes dst[i] ^= src[i] for all i — GF(2^8) vector addition
// — processing 8-byte words. It panics if len(dst) != len(src).
func AddSlice(src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: AddSlice length mismatch %d != %d", len(dst), len(src)))
	}
	addSlice(src, dst)
}

func addSlice(src, dst []byte) {
	n := xorVec(src, dst)
	addSliceGeneric(src[n:], dst[n:])
}

func addSliceGeneric(src, dst []byte) {
	i := 0
	for ; i+16 <= len(src); i += 16 {
		s := src[i : i+16 : i+16]
		d := dst[i : i+16 : i+16]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^binary.LittleEndian.Uint64(s[0:8]))
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^binary.LittleEndian.Uint64(s[8:16]))
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// MulSliceWith computes dst[i] ^= tab[src[i]] using a table obtained from
// MulTable. It is the raw accumulate kernel for callers that cache
// per-coefficient tables; MulSliceTable wraps it with the 0/1 fast paths.
// It panics if len(dst) != len(src).
func MulSliceWith(tab *[256]byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSliceWith length mismatch %d != %d", len(dst), len(src)))
	}
	n := mulAddVec(tab, src, dst)
	mulAddGeneric(tab, src[n:], dst[n:])
}

func mulAddGeneric(tab *[256]byte, src, dst []byte) {
	i := 0
	for ; i+16 <= len(src); i += 16 {
		s := src[i : i+16 : i+16]
		v0 := uint64(tab[s[0]]) | uint64(tab[s[1]])<<8 | uint64(tab[s[2]])<<16 | uint64(tab[s[3]])<<24 |
			uint64(tab[s[4]])<<32 | uint64(tab[s[5]])<<40 | uint64(tab[s[6]])<<48 | uint64(tab[s[7]])<<56
		v1 := uint64(tab[s[8]]) | uint64(tab[s[9]])<<8 | uint64(tab[s[10]])<<16 | uint64(tab[s[11]])<<24 |
			uint64(tab[s[12]])<<32 | uint64(tab[s[13]])<<40 | uint64(tab[s[14]])<<48 | uint64(tab[s[15]])<<56
		d := dst[i : i+16 : i+16]
		binary.LittleEndian.PutUint64(d[0:8], binary.LittleEndian.Uint64(d[0:8])^v0)
		binary.LittleEndian.PutUint64(d[8:16], binary.LittleEndian.Uint64(d[8:16])^v1)
	}
	for ; i < len(src); i++ {
		dst[i] ^= tab[src[i]]
	}
}

// MulSliceAssignWith computes dst[i] = tab[src[i]], the overwrite variant
// of MulSliceWith. It panics if len(dst) != len(src).
func MulSliceAssignWith(tab *[256]byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSliceAssignWith length mismatch %d != %d", len(dst), len(src)))
	}
	n := mulAssignVec(tab, src, dst)
	mulAssignGeneric(tab, src[n:], dst[n:])
}

func mulAssignGeneric(tab *[256]byte, src, dst []byte) {
	i := 0
	for ; i+16 <= len(src); i += 16 {
		s := src[i : i+16 : i+16]
		v0 := uint64(tab[s[0]]) | uint64(tab[s[1]])<<8 | uint64(tab[s[2]])<<16 | uint64(tab[s[3]])<<24 |
			uint64(tab[s[4]])<<32 | uint64(tab[s[5]])<<40 | uint64(tab[s[6]])<<48 | uint64(tab[s[7]])<<56
		v1 := uint64(tab[s[8]]) | uint64(tab[s[9]])<<8 | uint64(tab[s[10]])<<16 | uint64(tab[s[11]])<<24 |
			uint64(tab[s[12]])<<32 | uint64(tab[s[13]])<<40 | uint64(tab[s[14]])<<48 | uint64(tab[s[15]])<<56
		d := dst[i : i+16 : i+16]
		binary.LittleEndian.PutUint64(d[0:8], v0)
		binary.LittleEndian.PutUint64(d[8:16], v1)
	}
	for ; i < len(src); i++ {
		dst[i] = tab[src[i]]
	}
}

// MulSliceTable computes dst[i] ^= c * src[i], the table-driven
// replacement for MulSlice. Coefficients 0 and 1 take the no-op and
// word-XOR fast paths. It panics if len(dst) != len(src).
func MulSliceTable(c byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSliceTable length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		return
	case 1:
		addSlice(src, dst)
	default:
		MulSliceWith(MulTable(c), src, dst)
	}
}

// MulSliceAssignTable computes dst[i] = c * src[i], the table-driven
// replacement for MulSliceAssign. It panics if len(dst) != len(src).
func MulSliceAssignTable(c byte, src, dst []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gf256: MulSliceAssignTable length mismatch %d != %d", len(dst), len(src)))
	}
	switch c {
	case 0:
		clear(dst)
	case 1:
		copy(dst, src)
	default:
		MulSliceAssignWith(MulTable(c), src, dst)
	}
}
