package gf256

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGF256Kernels compares the seed scalar kernels against the
// bulk replacements across payload sizes. MB/s via b.SetBytes is the
// figure the §3.2 re-derivation in cmd/papereval consumes. The table/,
// assign-table/ and xor-word/ rows go through the public entry points,
// whatever they dispatch to on this CPU; the generic/ and avx2/ rows pin
// the portable kernel and the vector kernel side by side (avx2/ skips
// where the CPU has none).
func BenchmarkGF256Kernels(b *testing.B) {
	sizes := []int{1 << 10, 64 << 10, 1 << 20}
	for _, n := range sizes {
		src := make([]byte, n)
		dst := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(src)
		label := fmt.Sprintf("%dKiB", n>>10)
		b.Run("scalar/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSlice(0x8e, src, dst)
			}
		})
		b.Run("table/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSliceTable(0x8e, src, dst)
			}
		})
		tab := MulTable(0x8e)
		b.Run("generic/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				mulAddGeneric(tab, src, dst)
			}
		})
		b.Run("avx2/"+label, func(b *testing.B) {
			if !useAVX2 {
				b.Skip("no AVX2 on this CPU")
			}
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSliceWith(tab, src, dst)
			}
		})
		b.Run("assign-scalar/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSliceAssign(0x8e, src, dst)
			}
		})
		b.Run("assign-table/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSliceAssignTable(0x8e, src, dst)
			}
		})
		b.Run("xor-scalar/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSlice(1, src, dst)
			}
		})
		b.Run("xor-word/"+label, func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				AddSlice(src, dst)
			}
		})
	}
}
