package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodeShardsMatchesScalarOracle differentially tests the
// table-driven, parallel EncodeShards against the seed scalar
// implementation across code shapes, payload sizes (including unaligned
// tails) and parallelism degrees.
func TestEncodeShardsMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ k, m int }{{1, 0}, {1, 3}, {2, 1}, {4, 2}, {6, 3}, {10, 4}, {17, 5}}
	sizes := []int{1, 7, 16, 100, 1023, 4096, 70000}
	for _, sh := range shapes {
		for _, size := range sizes {
			for _, par := range []int{1, 0, 3} {
				code, err := New(sh.k, sh.m, WithParallelism(par))
				if err != nil {
					t.Fatal(err)
				}
				shards := make([][]byte, code.TotalShards())
				want := make([][]byte, code.TotalShards())
				for i := range shards {
					shards[i] = make([]byte, size)
					want[i] = make([]byte, size)
					if i < sh.k {
						rng.Read(shards[i])
						copy(want[i], shards[i])
					}
				}
				if err := code.encodeShardsScalar(want); err != nil {
					t.Fatal(err)
				}
				if err := code.EncodeShards(shards); err != nil {
					t.Fatal(err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], want[i]) {
						t.Fatalf("k=%d m=%d size=%d par=%d: shard %d diverges from scalar oracle",
							sh.k, sh.m, size, par, i)
					}
				}
			}
		}
	}
}

// TestReconstructParallelMatchesSerial checks that reconstruction under
// parallelism recovers exactly what the serial path does, for every
// erasure pattern of a 4+3 code.
func TestReconstructParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const k, m = 4, 3
	data := make([]byte, 300000)
	rng.Read(data)

	serial, err := New(k, m, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(k, m, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	full, err := serial.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Drop every 3-subset of shards.
	n := k + m
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				mk := func() [][]byte {
					sh := make([][]byte, n)
					for i := range sh {
						if i != a && i != b && i != c {
							sh[i] = append([]byte(nil), full[i]...)
						}
					}
					return sh
				}
				s1, s2 := mk(), mk()
				if err := serial.Reconstruct(s1); err != nil {
					t.Fatal(err)
				}
				if err := par.Reconstruct(s2); err != nil {
					t.Fatal(err)
				}
				for i := range s1 {
					if !bytes.Equal(s1[i], s2[i]) {
						t.Fatalf("erasures {%d,%d,%d}: shard %d differs between serial and parallel", a, b, c, i)
					}
				}
			}
		}
	}
}

// TestVerifyScratchReuse checks Verify still accepts valid parity and
// rejects corruption after the single-scratch rewrite.
func TestVerifyScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	code, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 12345)
	rng.Read(data)
	shards, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := code.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify(valid) = %v, %v", ok, err)
	}
	// Corrupt one byte in each parity shard in turn.
	for i := code.DataShards(); i < code.TotalShards(); i++ {
		shards[i][100] ^= 1
		ok, err := code.Verify(shards)
		if err != nil || ok {
			t.Fatalf("Verify(corrupt parity %d) = %v, %v; want false", i, ok, err)
		}
		shards[i][100] ^= 1
	}
	// Corrupt a data shard.
	shards[0][0] ^= 0xFF
	if ok, _ := code.Verify(shards); ok {
		t.Fatal("Verify accepted corrupted data shard")
	}
}

// TestForkedPathsAboveGrain keeps the goroutine-forking paths of
// EncodeShards and Reconstruct under test wherever chunkGrain is put: the
// shard size is derived from it, so the sizes above, which were chosen
// against an earlier grain, cannot silently fall back to the inline path.
func TestForkedPathsAboveGrain(t *testing.T) {
	const k, m = 6, 3
	size := chunkGrain + 13
	rng := rand.New(rand.NewSource(10))
	code, err := New(k, m, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	shards, want := make([][]byte, k+m), make([][]byte, k+m)
	for i := range shards {
		shards[i], want[i] = make([]byte, size), make([]byte, size)
		if i < k {
			rng.Read(shards[i])
			copy(want[i], shards[i])
		}
	}
	if err := code.encodeShardsScalar(want); err != nil {
		t.Fatal(err)
	}
	if err := code.EncodeShards(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("forked encode: shard %d diverges from scalar oracle", i)
		}
	}
	shards[0], shards[2], shards[k+1] = nil, nil, nil
	if err := code.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("forked reconstruct: data shard %d differs", i)
		}
	}
}
