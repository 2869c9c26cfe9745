// Benchmarks regenerating every evaluation artifact of "Secure Archival
// is Hard... Really Hard" (HotStorage '24). One benchmark family per
// experiment in DESIGN.md's index:
//
//	E1  BenchmarkFigure1       — storage cost vs security per encoding
//	E2  BenchmarkTable1        — per-system store path + measured cost
//	E3  BenchmarkSection32     — re-encryption campaign arithmetic
//	E4  BenchmarkHNDL          — harvest-now-decrypt-later campaign
//	E5  BenchmarkProactiveRenewal — renewal round vs mobile adversary
//	E6  BenchmarkRenewalComm   — Θ(n²) renewal traffic sweep
//	E7  BenchmarkTimestampChain — integrity chain renewal + verification
//	E8  BenchmarkLRSS          — leakage attack + resilient sharing
//	E9  BenchmarkBSM           — bounded-storage key agreement α-sweep
//	E10 BenchmarkQKD           — BB84 key rate and eavesdrop detection
//	E11 BenchmarkPASISSweep    — PASIS mode band (Low–High)
//
// Non-time results (overheads, months, probabilities) are attached as
// custom benchmark metrics so `go test -bench` output IS the reproduced
// table.
package securearchive_test

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"testing"

	"securearchive/internal/adversary"
	"securearchive/internal/bsm"
	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/costmodel"
	"securearchive/internal/lrss"
	"securearchive/internal/pss"
	"securearchive/internal/qkd"
	"securearchive/internal/shamir"
	"securearchive/internal/sig"
	"securearchive/internal/systems"
	"securearchive/internal/tstamp"
)

// E1: Figure 1 — encode a 1 MiB object under every encoding; the
// x-security/overhead metrics reproduce the chart's coordinates.
func BenchmarkFigure1(b *testing.B) {
	cfg := core.DefaultFigure1Config()
	data := make([]byte, cfg.ObjectLen)
	rand.Read(data)
	for _, enc := range core.Figure1Encodings(cfg) {
		enc := enc
		b.Run(enc.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var overhead float64
			for i := 0; i < b.N; i++ {
				e, err := enc.Encode(data, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				overhead = e.Overhead()
			}
			b.ReportMetric(overhead, "x-overhead")
			b.ReportMetric(float64(enc.Class().SecurityLevel()), "x-seclevel")
		})
	}
}

// E2: Table 1 — store one object through each system; x-overhead is the
// measured cost column.
func BenchmarkTable1(b *testing.B) {
	type mk struct {
		name string
		make func(c *cluster.Cluster) (systems.Archive, []byte, error)
	}
	data := make([]byte, 256<<10)
	rand.Read(data)
	key := []byte("a 28-byte master key secret!")
	makers := []mk{
		{"ArchiveSafeLT", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewArchiveSafeLT(c, nil, 4, 2)
			return s, data, err
		}},
		{"AONT-RS", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewAONTRS(c, 4, 6)
			return s, data, err
		}},
		{"HasDPSS", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewHasDPSS(c, 6, 3)
			return s, key, err
		}},
		{"LINCOS", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewLINCOS(c, 6, 3, 1)
			return s, data, err
		}},
		{"PASIS", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewPASIS(c, systems.PASISSecretShare, 6, 3)
			return s, data, err
		}},
		{"POTSHARDS", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewPOTSHARDS(c, 6, 3)
			return s, data, err
		}},
		{"VSRArchive", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewVSRArchive(c, 6, 3)
			return s, data, err
		}},
		{"CloudAES", func(c *cluster.Cluster) (systems.Archive, []byte, error) {
			s, err := systems.NewCloudAES(c, 4, 2)
			return s, data, err
		}},
	}
	for _, m := range makers {
		m := m
		b.Run(m.name, func(b *testing.B) {
			c := cluster.New(8, nil)
			sys, payload, err := m.make(c)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			var cost float64
			for i := 0; i < b.N; i++ {
				ref, err := sys.Store(fmt.Sprintf("o%d", i), payload, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				cost = systems.StorageCost(c, ref)
			}
			b.ReportMetric(cost, "x-overhead")
		})
	}
}

// E3: §3.2 — the re-encryption table; x-months carries each archive's
// read-only campaign duration.
func BenchmarkSection32Reencrypt(b *testing.B) {
	for _, a := range costmodel.PaperArchives() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			var months float64
			for i := 0; i < b.N; i++ {
				m, err := costmodel.ReencryptMonths(a, costmodel.Scenario{})
				if err != nil {
					b.Fatal(err)
				}
				months = m
			}
			b.ReportMetric(months, "x-months")
		})
	}
}

// E4: HNDL — full harvest sweep then doomsday breach across the two
// poles of Table 1; x-breached is 1 when the system fell.
func BenchmarkHNDL(b *testing.B) {
	doomsday := adversary.Breaks{
		Ciphers: map[cascade.Scheme]int{
			cascade.AES256CTR: 100, cascade.ChaCha20: 100, cascade.SHA256CTR: 100,
		},
		HashBroken: 100,
	}
	data := make([]byte, 64<<10)
	rand.Read(data)
	b.Run("CloudAES", func(b *testing.B) {
		var breached float64
		for i := 0; i < b.N; i++ {
			c := cluster.New(8, nil)
			sys, err := systems.NewCloudAES(c, 4, 2)
			if err != nil {
				b.Fatal(err)
			}
			ref, err := sys.Store("o", data, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			adv := adversary.NewMobile(2, int64(i))
			for e := 0; e < 8; e++ {
				adv.CorruptRandom(c)
				c.AdvanceEpoch()
			}
			if sys.Breach(adv, ref, doomsday, 100).Full {
				breached = 1
			}
		}
		b.ReportMetric(breached, "x-breached")
	})
	b.Run("LINCOS-renewing", func(b *testing.B) {
		var breached float64
		for i := 0; i < b.N; i++ {
			c := cluster.New(8, nil)
			sys, err := systems.NewLINCOS(c, 6, 3, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			ref, err := sys.Store("o", data, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			adv := adversary.NewMobile(1, int64(i))
			for e := 0; e < 8; e++ {
				adv.CorruptRandom(c)
				c.AdvanceEpoch()
				if err := sys.Renew(ref, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
			if sys.Breach(adv, ref, doomsday, 100).Violated {
				breached = 1
			}
		}
		b.ReportMetric(breached, "x-breached")
	})
}

// E5: proactive renewal round throughput on a 64 KiB object.
func BenchmarkProactiveRenewal(b *testing.B) {
	secret := make([]byte, 64<<10)
	rand.Read(secret)
	cm, err := pss.NewDataCommittee(secret, 8, 4, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cm.Renew(rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// E6: renewal traffic sweep — x-bytes shows Θ(n²) growth.
func BenchmarkRenewalComm(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var traffic float64
			for i := 0; i < b.N; i++ {
				traffic = float64(pss.RenewalTraffic(n, 1<<20))
			}
			b.ReportMetric(traffic, "x-bytes")
		})
	}
}

// E7: timestamp chain — renewal and verification across a 12-link
// rotation.
func BenchmarkTimestampChain(b *testing.B) {
	doc := make([]byte, 4096)
	rand.Read(doc)
	b.Run("renew", func(b *testing.B) {
		chain, err := tstamp.NewFromDigest(sha256.Sum256(doc), tstamp.RefHash, sig.Ed25519, 0, nil, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		schemes := []sig.Scheme{sig.ECDSAP256, sig.Ed25519}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := chain.Renew(schemes[i%2], i+1, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify-12-links", func(b *testing.B) {
		chain, _ := tstamp.NewFromDigest(sha256.Sum256(doc), tstamp.RefHash, sig.Ed25519, 0, nil, rand.Reader)
		schemes := []sig.Scheme{sig.ECDSAP256, sig.Ed25519}
		for k := 0; k < 11; k++ {
			chain.Renew(schemes[k%2], k+1, rand.Reader)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := chain.Verify(100, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8: leakage — the bit-leakage attack on Shamir and the LRSS encode
// path with its storage metric.
func BenchmarkLRSS(b *testing.B) {
	b.Run("attack-24-shares", func(b *testing.B) {
		secret := []byte{0x5C}
		shares, _ := shamir.Split(secret, 24, 2, rand.Reader)
		leaks := make([]lrss.LeakBit, len(shares))
		for i, s := range shares {
			leaks[i] = lrss.LeakFromShare(s, 0, i%8)
		}
		var ok float64
		for i := 0; i < b.N; i++ {
			got, err := lrss.LeakAttackShamir(leaks)
			if err == nil && got == secret[0] {
				ok = 1
			}
		}
		b.ReportMetric(ok, "x-recovered")
	})
	b.Run("split-8of4-4KiB", func(b *testing.B) {
		p := lrss.Params{N: 8, T: 4, SourceLen: lrss.DefaultSourceLen}
		secret := make([]byte, 4096)
		rand.Read(secret)
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if _, err := lrss.Split(secret, p, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(lrss.StorageOverhead(p, 4096), "x-overhead")
	})
}

// E9: BSM α-sweep — x-fresh is the surviving entropy per run.
func BenchmarkBSM(b *testing.B) {
	for _, alpha := range []float64{0.25, 0.5, 0.75, 0.9} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			p := bsm.Params{
				StreamBytes: 1 << 20, SampleBytes: 1024,
				AdversaryFraction: alpha, KeyBytes: 32, EveStrategy: bsm.EveRandom,
			}
			b.SetBytes(1 << 20)
			var fresh float64
			for i := 0; i < b.N; i++ {
				res, err := bsm.Exchange(p, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				fresh = float64(res.FreshEntropyBytes)
			}
			b.ReportMetric(fresh, "x-fresh-bytes")
		})
	}
}

// E10: QKD — key production rate and eavesdropper detection probability.
func BenchmarkQKD(b *testing.B) {
	p := qkd.Params{Photons: 8192, NoiseRate: 0.01, SampleFraction: 0.25, AbortQBER: 0.11}
	b.Run("session", func(b *testing.B) {
		var keyBits float64
		for i := 0; i < b.N; i++ {
			res, err := qkd.Run(p, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			keyBits = float64(len(res.Key) * 8)
		}
		b.ReportMetric(keyBits, "x-key-bits")
	})
	b.Run("detection", func(b *testing.B) {
		var prob float64
		for i := 0; i < b.N; i++ {
			pr, err := qkd.DetectionProbability(p, 20, int64(i)*1000)
			if err != nil {
				b.Fatal(err)
			}
			prob = pr
		}
		b.ReportMetric(prob, "x-detect-prob")
	})
}

// E11: PASIS configurability sweep — the Low–High band of Table 1.
func BenchmarkPASISSweep(b *testing.B) {
	data := make([]byte, 256<<10)
	rand.Read(data)
	for _, mode := range []systems.PASISMode{
		systems.PASISReplication, systems.PASISErasure,
		systems.PASISEncryptEC, systems.PASISSecretShare,
	} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			c := cluster.New(8, nil)
			p, err := systems.NewPASIS(c, mode, 6, 3)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			var cost float64
			for i := 0; i < b.N; i++ {
				ref, err := p.Store(fmt.Sprintf("o%d", i), data, rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				cost = systems.StorageCost(c, ref)
			}
			b.ReportMetric(cost, "x-overhead")
		})
	}
}
