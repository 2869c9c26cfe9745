package rs

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkRSEncodeParallel measures end-to-end parity computation MB/s
// (payload bytes via b.SetBytes) for a 10+4 code across payload sizes,
// comparing three paths:
//
//	scalar — the seed branchy gf256.MulSlice implementation (oracle)
//	p1     — table-driven kernels, serial (WithParallelism(1))
//	pN     — table-driven kernels, N = GOMAXPROCS workers
//
// Run with -cpu 1,4 to additionally scale the scheduler; the p1/pN pair
// isolates the pipeline's own worker scaling at a fixed GOMAXPROCS.
func BenchmarkRSEncodeParallel(b *testing.B) {
	const k, m = 10, 4
	maxprocs := runtime.GOMAXPROCS(0)
	for _, payload := range []int{1 << 10, 16 << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20} {
		scalar, err := New(k, m, WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		parN, err := New(k, m) // default: GOMAXPROCS workers
		if err != nil {
			b.Fatal(err)
		}
		shards := make([][]byte, k+m)
		size := (payload + k - 1) / k
		rng := rand.New(rand.NewSource(int64(payload)))
		for i := range shards {
			shards[i] = make([]byte, size)
			if i < k {
				rng.Read(shards[i])
			}
		}
		label := sizeLabel(payload)
		b.Run("scalar/"+label, func(b *testing.B) {
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scalar.encodeShardsScalar(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("p1/"+label, func(b *testing.B) {
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := scalar.EncodeShards(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("p%d/%s", maxprocs, label), func(b *testing.B) {
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := parN.EncodeShards(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeLabel(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}
