// Ablation benchmarks for the design choices DESIGN.md calls out:
// cascade depth, sharing geometry, pack factor, LRSS source length,
// dispersal width, and commitment scheme. Each sweep isolates one knob so
// its cost is visible in the -bench output.
package securearchive_test

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"securearchive/internal/cascade"
	"securearchive/internal/commit"
	"securearchive/internal/group"
	"securearchive/internal/lrss"
	"securearchive/internal/packed"
	"securearchive/internal/rs"
	"securearchive/internal/shamir"
)

// Ablation: cascade depth. Each extra family costs one more pass over the
// data; the security gained is an extra independent hardness assumption.
func BenchmarkAblationCascadeDepth(b *testing.B) {
	msg := make([]byte, 1<<20)
	rand.Read(msg)
	stacks := [][]cascade.Scheme{
		{cascade.AES256CTR},
		{cascade.AES256CTR, cascade.ChaCha20},
		{cascade.AES256CTR, cascade.ChaCha20, cascade.SHA256CTR},
	}
	for _, stack := range stacks {
		stack := stack
		b.Run(fmt.Sprintf("layers=%d", len(stack)), func(b *testing.B) {
			keys, err := cascade.GenerateKeys(stack, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				if _, err := cascade.Encrypt(msg, keys, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: Shamir geometry. Split cost grows with n (outputs) and t
// (polynomial degree); the (t, n) choice is the paper's availability/
// corruption-threshold dial.
func BenchmarkAblationShamirGeometry(b *testing.B) {
	secret := make([]byte, 64<<10)
	rand.Read(secret)
	for _, g := range []struct{ n, t int }{
		{4, 2}, {8, 4}, {16, 8}, {32, 16}, {64, 32},
	} {
		g := g
		b.Run(fmt.Sprintf("n=%d,t=%d", g.n, g.t), func(b *testing.B) {
			b.SetBytes(int64(len(secret)))
			for i := 0; i < b.N; i++ {
				if _, err := shamir.Split(secret, g.n, g.t, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: pack factor. Larger k cuts storage (x-overhead) and split
// cost but raises the reconstruction threshold t+k.
func BenchmarkAblationPackFactor(b *testing.B) {
	secret := make([]byte, 64<<10)
	rand.Read(secret)
	for _, k := range []int{1, 2, 3, 4, 5} {
		k := k
		p := packed.Params{N: 10, T: 4, K: k}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(secret)))
			for i := 0; i < b.N; i++ {
				if _, err := packed.Split(secret, p, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(packed.StorageOverhead(p, len(secret)), "x-overhead")
			b.ReportMetric(float64(p.RecoverThreshold()), "x-recover-threshold")
		})
	}
}

// Ablation: LRSS source length. Longer extractor sources buy leakage
// budget (≈8·len − out bits) at linear encode cost.
func BenchmarkAblationLRSSSource(b *testing.B) {
	secret := make([]byte, 1024)
	rand.Read(secret)
	for _, src := range []int{16, 32, 64, 128} {
		src := src
		p := lrss.Params{N: 6, T: 3, SourceLen: src}
		b.Run(fmt.Sprintf("source=%d", src), func(b *testing.B) {
			b.SetBytes(int64(len(secret)))
			for i := 0; i < b.N; i++ {
				if _, err := lrss.Split(secret, p, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lrss.StorageOverhead(p, len(secret)), "x-overhead")
		})
	}
}

// Ablation: erasure-code rate at fixed redundancy fraction. Wider codes
// amortise parity but pay more matrix work per byte.
func BenchmarkAblationRSWidth(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.Read(data)
	for _, g := range []struct{ k, m int }{
		{2, 1}, {4, 2}, {8, 4}, {16, 8}, {32, 16},
	} {
		g := g
		b.Run(fmt.Sprintf("k=%d,m=%d", g.k, g.m), func(b *testing.B) {
			code, err := rs.New(g.k, g.m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := code.Encode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: commitment scheme. The §3.3 trade: hash commitments are
// orders of magnitude cheaper; Pedersen commitments are unconditionally
// hiding. Each op commits and then checks the opening, as a timestamp
// chain does at write and at audit.
func BenchmarkAblationCommitments(b *testing.B) {
	msg := make([]byte, 28)
	rand.Read(msg)
	b.Run("hash-sha256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, op, err := commit.CommitHash(msg, rand.Reader)
			if err == nil {
				err = commit.VerifyHash(c, op)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pedersen-2048bit", func(b *testing.B) {
		p := commit.NewPedersen(group.Default())
		m := new(big.Int).SetBytes(msg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, op, err := p.Commit(m, rand.Reader)
			if err == nil {
				err = p.Verify(c, op)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
