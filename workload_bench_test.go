// Workload-driven benchmarks: realistic archival object mixes (heavy-
// tailed sizes, write-once) ingested through representative systems, and
// the recall pattern replayed against them. These complement the fixed-
// size per-table benches with the mixed traffic a deployment sees.
package securearchive_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/systems"
	"securearchive/internal/workload"
)

// benchIngest pushes a 64-object archival mix (payloads capped at 256 KiB
// to keep iterations bounded) through a system and reports achieved
// ingest throughput.
func benchIngest(b *testing.B, mk func(c *cluster.Cluster) (systems.Archive, error)) {
	gen, err := workload.NewGenerator(workload.ArchivalMix(), 1)
	if err != nil {
		b.Fatal(err)
	}
	trace := gen.Batch(64)
	payloads := make([][]byte, len(trace.Objects))
	var total int64
	for i, o := range trace.Objects {
		payloads[i] = gen.Payload(o, 256<<10)
		total += int64(len(payloads[i]))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.New(8, nil)
		sys, err := mk(c)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, o := range trace.Objects {
			if _, err := sys.Store(fmt.Sprintf("%s-%d", o.ID, i), payloads[j], rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkIngestMixPOTSHARDS(b *testing.B) {
	benchIngest(b, func(c *cluster.Cluster) (systems.Archive, error) {
		return systems.NewPOTSHARDS(c, 6, 3)
	})
}

func BenchmarkIngestMixAONTRS(b *testing.B) {
	benchIngest(b, func(c *cluster.Cluster) (systems.Archive, error) {
		return systems.NewAONTRS(c, 4, 6)
	})
}

func BenchmarkIngestMixCloudAES(b *testing.B) {
	benchIngest(b, func(c *cluster.Cluster) (systems.Archive, error) {
		return systems.NewCloudAES(c, 4, 2)
	})
}

func BenchmarkIngestMixArchiveSafeLT(b *testing.B) {
	benchIngest(b, func(c *cluster.Cluster) (systems.Archive, error) {
		return systems.NewArchiveSafeLT(c, nil, 4, 2)
	})
}

// BenchmarkRecallMixVSR replays a bursty recall (25% contiguous project
// retrieval) against a renewing archive.
func BenchmarkRecallMixVSR(b *testing.B) {
	gen, err := workload.NewGenerator(workload.ArchivalMix(), 2)
	if err != nil {
		b.Fatal(err)
	}
	trace := gen.Batch(64)
	c := cluster.New(8, nil)
	sys, err := systems.NewVSRArchive(c, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	refs := make([]*systems.Ref, len(trace.Objects))
	var recallBytes int64
	payloads := make([][]byte, len(trace.Objects))
	for i, o := range trace.Objects {
		payloads[i] = gen.Payload(o, 256<<10)
		ref, err := sys.Store(o.ID, payloads[i], rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = ref
	}
	recall, err := gen.RecallPattern(len(refs), 0.25)
	if err != nil {
		b.Fatal(err)
	}
	for _, idx := range recall {
		recallBytes += int64(len(payloads[idx]))
	}
	b.SetBytes(recallBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, idx := range recall {
			if _, err := sys.Retrieve(refs[idx]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkIngestMixHasDPSSKeys ingests a key-management workload: one
// escrowed key per data object in the mix.
func BenchmarkIngestMixHasDPSSKeys(b *testing.B) {
	key := []byte("a 28-byte per-object key....")
	b.SetBytes(int64(len(key) * 16))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.New(8, nil)
		sys, err := systems.NewHasDPSS(c, 6, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < 16; j++ {
			if _, err := sys.Store(fmt.Sprintf("key-%d-%d", i, j), key, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	}
}
