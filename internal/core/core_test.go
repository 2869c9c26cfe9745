package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"runtime"
	"testing"

	"securearchive/internal/sec"
)

func cfgSmall() Figure1Config {
	// Small objects keep the unit tests fast; bench_test.go measures the
	// full 1 MiB geometry.
	return Figure1Config{N: 8, K: 4, T: 4, PackCount: 3, ObjectLen: 8 << 10}
}

func TestAllEncodingsRoundTrip(t *testing.T) {
	data := make([]byte, 10000)
	rand.Read(data)
	for _, enc := range Figure1Encodings(cfgSmall()) {
		e, err := enc.Encode(data, rand.Reader)
		if err != nil {
			t.Fatalf("%s encode: %v", enc.Name(), err)
		}
		got, err := enc.Decode(e)
		if err != nil {
			t.Fatalf("%s decode: %v", enc.Name(), err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip mismatch", enc.Name())
		}
	}
}

func TestEncodingsToleratesErasures(t *testing.T) {
	data := make([]byte, 5000)
	rand.Read(data)
	for _, enc := range Figure1Encodings(cfgSmall()) {
		n, min := enc.Shards()
		e, err := enc.Encode(data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Drop shards from the END down to the decode minimum. (Packed
		// and Shamir decoders scan in order; end-drops exercise the
		// maximum tolerated loss for every encoding.)
		for i := min; i < n; i++ {
			e.Shards[i] = nil
		}
		got, err := enc.Decode(e)
		if err != nil {
			t.Fatalf("%s with %d erasures: %v", enc.Name(), n-min, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: mismatch after erasures", enc.Name())
		}
	}
}

// intactStripe is a 1 MiB RS 10+4 stripe as an unfaulted read sees it:
// FetchChunkStripeCtx probes in index order, so the ten data shards
// arrive and the four parity shards are never fetched.
func intactStripe(tb testing.TB) (Erasure, *Encoded) {
	tb.Helper()
	enc := Erasure{N: 14, K: 10}
	data := make([]byte, 1<<20)
	rand.Read(data)
	e, err := enc.Encode(data, rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	for i := enc.K; i < enc.N; i++ {
		e.Shards[i] = nil
	}
	return enc, e
}

// TestDecodeIntactStripeAllocBytes gates "reads reconstruct data only"
// in bytes, so it needs no clock: decoding an intact stripe allocates the
// plaintext and a shard-pointer slice, not the four 105 KB parity shards
// nobody reads — which would also mean 4 MB of field arithmetic ran.
func TestDecodeIntactStripeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	enc, e := intactStripe(t)
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := enc.Decode(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := int((after.TotalAlloc - before.TotalAlloc) / calls)
	t.Logf("Decode of an intact 1 MiB stripe: %d bytes allocated beyond the plaintext", per-e.PlainLen)
	if per > e.PlainLen+4<<10 {
		t.Fatalf("Decode allocates %d bytes for a %d-byte object, want at most 4 KiB more: parity is being rebuilt", per, e.PlainLen)
	}
}

func TestFigure1ShapeHolds(t *testing.T) {
	pts, err := Figure1(cfgSmall(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("%d points, want 9", len(pts))
	}
	if bad := Figure1Shape(pts); len(bad) != 0 {
		t.Fatalf("Figure 1 shape violations: %v", bad)
	}
}

func TestFigure1NumericAnchors(t *testing.T) {
	pts, err := Figure1(cfgSmall(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) Figure1Point {
		for _, p := range pts {
			if p.Encoding == name {
				return p
			}
		}
		t.Fatalf("missing %s", name)
		return Figure1Point{}
	}
	// Replication and secret sharing: ≈ n = 8.
	if p := get("Replication"); p.Overhead < 7.9 || p.Overhead > 8.1 {
		t.Errorf("replication overhead %.2f, want 8", p.Overhead)
	}
	if p := get("Secret Sharing"); p.Overhead < 7.9 || p.Overhead > 8.1 {
		t.Errorf("secret sharing overhead %.2f, want 8", p.Overhead)
	}
	// Erasure coding: ≈ n/k = 2.
	if p := get("Erasure Coding"); p.Overhead < 1.95 || p.Overhead > 2.1 {
		t.Errorf("erasure overhead %.2f, want 2", p.Overhead)
	}
	// Packed sharing with k=3: ≈ 8/3 ≈ 2.67.
	if p := get("Packed Secret Sharing"); p.Overhead < 2.5 || p.Overhead > 2.9 {
		t.Errorf("packed overhead %.2f, want ≈2.67", p.Overhead)
	}
}

func TestRecommendShortHorizon(t *testing.T) {
	rec, err := Recommend(Requirements{HorizonYears: 10, MaxOverhead: 2.5, Nodes: 8, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Encoding.Name() != "Cascade Encryption" {
		t.Fatalf("short horizon chose %s", rec.Encoding.Name())
	}
	if rec.NeedsProactiveRenewal {
		t.Fatal("computational encoding should not demand share renewal")
	}
	if len(rec.Caveats) == 0 {
		t.Fatal("no HNDL caveat on a computational recommendation")
	}
}

func TestRecommendLongHorizonRichBudget(t *testing.T) {
	rec, err := Recommend(Requirements{HorizonYears: 100, MaxOverhead: 10, Nodes: 8, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Encoding.Name() != "Secret Sharing" {
		t.Fatalf("long horizon chose %s", rec.Encoding.Name())
	}
	if !rec.NeedsProactiveRenewal {
		t.Fatal("ITS encoding must demand proactive renewal")
	}
}

func TestRecommendLongHorizonTightBudget(t *testing.T) {
	rec, err := Recommend(Requirements{HorizonYears: 100, MaxOverhead: 3, Nodes: 8, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Encoding.Name() != "Packed Secret Sharing" {
		t.Fatalf("tight ITS budget chose %s", rec.Encoding.Name())
	}
	p := rec.Encoding.(PackedSharing)
	if float64(p.N)/float64(p.K) > 3 {
		t.Fatalf("packed choice k=%d exceeds budget", p.K)
	}
}

func TestRecommendLeakageThreat(t *testing.T) {
	rec, err := Recommend(Requirements{HorizonYears: 100, MaxOverhead: 100, LeakageThreat: true, Nodes: 8, Threshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Encoding.LeakageResilient() {
		t.Fatalf("leakage threat chose non-LR encoding %s", rec.Encoding.Name())
	}
}

func TestRecommendEntropicFallback(t *testing.T) {
	rec, err := Recommend(Requirements{HorizonYears: 100, MaxOverhead: 2.7, HighEntropyData: true, Nodes: 8, Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	// n=8 t=6: max pack k = 1, packed unavailable; entropic must fire.
	if rec.Encoding.Name() != "Entropically Secure Encryption" {
		t.Fatalf("entropic fallback chose %s", rec.Encoding.Name())
	}
}

func TestRecommendUnsatisfiable(t *testing.T) {
	// Long horizon, 1.1x budget, low-entropy data: the paper's trade-off
	// bites and no encoding exists.
	_, err := Recommend(Requirements{HorizonYears: 100, MaxOverhead: 1.1, Nodes: 8, Threshold: 4})
	if !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("expected ErrUnsatisfiable, got %v", err)
	}
	if _, err := Recommend(Requirements{HorizonYears: 1, MaxOverhead: 1, Nodes: 8, Threshold: 7}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("sub-erasure budget: %v", err)
	}
	if _, err := Recommend(Requirements{HorizonYears: 1, MaxOverhead: 5, Nodes: 1, Threshold: 1}); !errors.Is(err, ErrUnsatisfiable) {
		t.Fatalf("bad geometry: %v", err)
	}
}

func TestLRSSWireRoundTrip(t *testing.T) {
	enc := LRSS{T: 3, N: 5}
	data := []byte("wire format survives the trip")
	e, err := enc.Encode(data, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a serialised share: decode of THAT share must fail cleanly,
	// and decoding from others still works.
	e.Shards[0] = e.Shards[0][:10]
	if _, err := decodeLRSSShare(e.Shards[0]); err == nil {
		t.Fatal("truncated LRSS share decoded")
	}
	e.Shards[0] = nil
	got, err := enc.Decode(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestClassStrings(t *testing.T) {
	if sec.IT.String() != "ITS" || sec.ITSometimes.String() != "ITS (sometimes)" {
		t.Fatal("class strings diverge from Table 1 vocabulary")
	}
	if sec.CostLowHigh.String() != "Low-High" {
		t.Fatal("cost band strings diverge from Table 1 vocabulary")
	}
}
