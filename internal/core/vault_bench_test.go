package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"testing"

	"securearchive/internal/tstamp"
)

// Vault-level benchmarks on the production configuration (see
// productionVault): what the integrity chain's reference mode costs a
// 16 KiB and a 4 MiB object per Get and per Put, with group.Default(). A
// RefCommitment Get stays within 10 % of RefHash (reads run no
// exponentiation); a RefCommitment Put is RefHash plus one ~0.25 ms
// commitment.

var benchModes = []struct {
	name string
	mode tstamp.RefMode
}{{"RefHash", tstamp.RefHash}, {"RefCommitment", tstamp.RefCommitment}}

// benchSizes are a small object (one chunk) and a 4 MiB one, which the
// default 1 MiB chunk size cuts into four stripes: the multi-chunk read
// path, with its per-chunk checks and prefetch.
var benchSizes = []struct {
	name string
	n    int
}{{"16KiB", 16 << 10}, {"4MiB", 4 << 20}}

func BenchmarkVaultGet(b *testing.B) {
	for _, sz := range benchSizes {
		data := make([]byte, sz.n)
		rand.Read(data)
		for _, m := range benchModes {
			b.Run(m.name+"/"+sz.name, func(b *testing.B) {
				v := productionVault(b, m.mode)
				if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.Get(context.Background(), "obj"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkVaultPut(b *testing.B) {
	for _, sz := range benchSizes {
		data := make([]byte, sz.n)
		rand.Read(data)
		for _, m := range benchModes {
			b.Run(m.name+"/"+sz.name, func(b *testing.B) {
				v := productionVault(b, m.mode)
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := fmt.Sprintf("o%d", i)
					if _, err := v.PutReader(context.Background(), id, bytes.NewReader(data)); err != nil {
						b.Fatal(err)
					}
					// Keep the mem store flat across b.N; not part of a Put.
					b.StopTimer()
					if err := v.DeleteContext(context.Background(), id); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkErasureDecodeIntact is the decode every unfaulted chunk read
// pays: all ten data shards present, parity not fetched. It should cost
// one 1 MiB copy (rs.Join) and no field arithmetic.
func BenchmarkErasureDecodeIntact(b *testing.B) {
	enc, e := intactStripe(b)
	b.SetBytes(int64(e.PlainLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Decode(e); err != nil {
			b.Fatal(err)
		}
	}
}
