package gf256

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestMulTableMatchesMul checks every entry of the cached full table
// against the scalar oracle.
func TestMulTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		tab := MulTable(byte(c))
		for x := 0; x < 256; x++ {
			if got, want := tab[x], Mul(byte(c), byte(x)); got != want {
				t.Fatalf("MulTable(%d)[%d] = %d, want %d", c, x, got, want)
			}
		}
	}
}

// TestMulSliceTableDifferential fuzzes the table kernels against the
// scalar MulSlice/MulSliceAssign oracle on random coefficients and
// lengths 0–4096, including unaligned word tails and odd base offsets.
// The fixed seed keeps the suite deterministic; the FreshSeed variant
// below walks new inputs every run.
func TestMulSliceTableDifferential(t *testing.T) {
	runMulSliceDifferential(t, rand.New(rand.NewSource(1)))
}

// TestMulSliceTableDifferentialFreshSeed runs the same differential
// oracle on a seed drawn fresh each run, so CI keeps extending the
// input coverage forever. The seed is logged: on failure, reproduce by
// substituting it into rand.NewSource.
func TestMulSliceTableDifferentialFreshSeed(t *testing.T) {
	var b [8]byte
	crand.Read(b[:])
	seed := int64(binary.LittleEndian.Uint64(b[:]) &^ (1 << 63))
	t.Logf("differential seed: %d", seed)
	runMulSliceDifferential(t, rand.New(rand.NewSource(seed)))
}

func runMulSliceDifferential(t *testing.T, rng *rand.Rand) {
	t.Helper()
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 100, 255, 256, 1000, 4095, 4096}
	for trial := 0; trial < 50; trial++ {
		lengths = append(lengths, rng.Intn(4097))
	}
	for _, n := range lengths {
		// Offset the slices so word loops see unaligned bases too.
		off := rng.Intn(8)
		buf := make([]byte, n+off)
		src := buf[off:]
		rng.Read(src)
		coeffs := []byte{0, 1, 2, byte(rng.Intn(256)), byte(rng.Intn(256)), 255}
		for _, c := range coeffs {
			base := make([]byte, n)
			rng.Read(base)

			want := append([]byte(nil), base...)
			MulSlice(c, src, want)
			got := append([]byte(nil), base...)
			MulSliceTable(c, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSliceTable(c=%d, n=%d) diverges from MulSlice", c, n)
			}

			want = append([]byte(nil), base...)
			MulSliceAssign(c, src, want)
			got = append([]byte(nil), base...)
			MulSliceAssignTable(c, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSliceAssignTable(c=%d, n=%d) diverges from MulSliceAssign", c, n)
			}

			if c != 0 {
				want = append([]byte(nil), base...)
				MulSlice(c, src, want)
				got = append([]byte(nil), base...)
				MulSliceWith(MulTable(c), src, got)
				if !bytes.Equal(got, want) {
					t.Fatalf("MulSliceWith(c=%d, n=%d) diverges from MulSlice", c, n)
				}
			}
		}
	}
}

// TestMulSliceAssignTableAliased exercises the in-place Horner pattern:
// src and dst are the same slice.
func TestMulSliceAssignTableAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 8, 17, 256, 4095} {
		for _, c := range []byte{0, 1, 3, 0x8e, 255} {
			buf := make([]byte, n)
			rng.Read(buf)
			want := append([]byte(nil), buf...)
			MulSliceAssign(c, want, want)
			MulSliceAssignTable(c, buf, buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("aliased MulSliceAssignTable(c=%d, n=%d) diverges", c, n)
			}
		}
	}
}

// TestAddSlice checks the word-wise XOR kernel against a byte loop.
func TestAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 100, 4095, 4096} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		AddSlice(src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("AddSlice(n=%d) diverges from byte loop", n)
		}
	}
	// Self-XOR zeroes.
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	AddSlice(buf, buf)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("AddSlice(x, x)[%d] = %d, want 0", i, b)
		}
	}
}

// TestKernelLengthMismatchPanics preserves the scalar functions' panic
// contract.
func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddSlice":            func() { AddSlice(make([]byte, 3), make([]byte, 4)) },
		"MulSliceTable":       func() { MulSliceTable(2, make([]byte, 3), make([]byte, 4)) },
		"MulSliceAssignTable": func() { MulSliceAssignTable(2, make([]byte, 3), make([]byte, 4)) },
		"MulSliceWith":        func() { MulSliceWith(MulTable(2), make([]byte, 3), make([]byte, 4)) },
		"MulSliceAssignWith":  func() { MulSliceAssignWith(MulTable(2), make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// TestKernelsExhaustiveDifferential runs both implementations of every
// bulk kernel — the public entry points (AVX2 body plus portable tail
// where the CPU has it) and the portable kernels called directly, so the
// fallback is exercised on an AVX2 box too — against the scalar oracle:
// every coefficient × every length 0–130 and 4095–4097 (straddling the
// 16-, 32- and 64-byte block edges) × source and destination each
// misaligned by 0–3 bytes, plus exact src == dst aliasing. The bytes
// either side of the destination must come back untouched. Under the
// race detector every 15th coefficient runs (0, 15, … 255).
func TestKernelsExhaustiveDifferential(t *testing.T) {
	cstep := 1
	if raceEnabled {
		cstep = 15
	}
	kernels := []struct {
		name              string
		mulAdd, mulAssign func(tab *[256]byte, src, dst []byte)
		xor               func(src, dst []byte)
	}{
		{"entry", MulSliceWith, MulSliceAssignWith, addSlice},
		{"generic", mulAddGeneric, mulAssignGeneric, addSliceGeneric},
	}
	t.Logf("useAVX2 = %v", useAVX2)
	var lengths []int
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097)

	const maxLen, guard = 4097, 40
	rng := rand.New(rand.NewSource(4))
	srcBuf := make([]byte, maxLen+3)
	base := make([]byte, maxLen)
	rng.Read(srcBuf)
	rng.Read(base)
	fence := bytes.Repeat([]byte{0xA5}, guard+3+maxLen+guard)
	dstBuf := make([]byte, len(fence))
	alias := make([]byte, maxLen+3)
	wantAdd, wantAssign, wantXor := make([]byte, maxLen), make([]byte, maxLen), make([]byte, maxLen)
	zero := make([]byte, maxLen)

	for _, k := range kernels {
		// check runs one kernel call on a fenced copy of base.
		check := func(op string, c, n, so, do int, want []byte, call func(src, dst []byte)) {
			copy(dstBuf, fence)
			lo := guard + do
			dst := dstBuf[lo : lo+n]
			copy(dst, base)
			call(srcBuf[so:so+n], dst)
			if !bytes.Equal(dst, want[:n]) {
				t.Fatalf("%s/%s c=%d n=%d src+%d dst+%d: diverges from the scalar oracle", k.name, op, c, n, so, do)
			}
			if !bytes.Equal(dstBuf[:lo], fence[:lo]) || !bytes.Equal(dstBuf[lo+n:], fence[lo+n:]) {
				t.Fatalf("%s/%s c=%d n=%d src+%d dst+%d: wrote outside dst", k.name, op, c, n, so, do)
			}
		}
		for c := 0; c < 256; c += cstep {
			tab := MulTable(byte(c))
			for _, n := range lengths {
				for so := 0; so < 4; so++ {
					src := srcBuf[so : so+n]
					copy(wantAdd, base[:n])
					MulSlice(byte(c), src, wantAdd[:n])
					MulSliceAssign(byte(c), src, wantAssign[:n])
					for i, s := range src {
						wantXor[i] = base[i] ^ s
					}
					for do := 0; do < 4; do++ {
						check("mulAdd", c, n, so, do, wantAdd, func(s, d []byte) { k.mulAdd(tab, s, d) })
						check("mulAssign", c, n, so, do, wantAssign, func(s, d []byte) { k.mulAssign(tab, s, d) })
						if c == 0 { // XOR takes no coefficient
							check("xor", c, n, so, do, wantXor, k.xor)
						}
					}
					// Exact aliasing: x = c·x, x ^= c·x = (c^1)·x, x ^= x = 0.
					a := alias[so : so+n]
					copy(a, src)
					k.mulAssign(tab, a, a)
					if !bytes.Equal(a, wantAssign[:n]) {
						t.Fatalf("%s/mulAssign aliased c=%d n=%d off=%d diverges", k.name, c, n, so)
					}
					copy(a, src)
					k.mulAdd(tab, a, a)
					MulSliceAssign(byte(c)^1, src, wantAssign[:n])
					if !bytes.Equal(a, wantAssign[:n]) {
						t.Fatalf("%s/mulAdd aliased c=%d n=%d off=%d diverges", k.name, c, n, so)
					}
					k.xor(a, a)
					if !bytes.Equal(a, zero[:n]) {
						t.Fatalf("%s/xor aliased c=%d n=%d off=%d is not zero", k.name, c, n, so)
					}
				}
			}
		}
	}
}
