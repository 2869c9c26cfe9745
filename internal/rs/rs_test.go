package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewParamValidation(t *testing.T) {
	cases := []struct {
		data, parity int
		ok           bool
	}{
		{1, 0, true},
		{4, 2, true},
		{128, 127, true},
		{0, 2, false},
		{-1, 2, false},
		{4, -1, false},
		{200, 100, false}, // > 255 total
	}
	for _, c := range cases {
		_, err := New(c.data, c.parity)
		if (err == nil) != c.ok {
			t.Errorf("New(%d, %d): err=%v, want ok=%v", c.data, c.parity, err, c.ok)
		}
		if err != nil && !errors.Is(err, ErrInvalidParams) {
			t.Errorf("New(%d, %d): error %v is not ErrInvalidParams", c.data, c.parity, err)
		}
	}
}

func TestEncodeJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 4, 10} {
		for _, m := range []int{0, 1, 4} {
			c, err := New(k, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 7, 100, 4096, 4097} {
				data := make([]byte, size)
				rng.Read(data)
				shards, err := c.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				if len(shards) != k+m {
					t.Fatalf("Encode produced %d shards, want %d", len(shards), k+m)
				}
				got, err := c.Join(shards, size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("k=%d m=%d size=%d: join mismatch", k, m, size)
				}
			}
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	const k, m = 4, 3
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 1000)
	rng.Read(data)
	orig, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	// Erase every subset of up to m shards.
	n := k + m
	for mask := 0; mask < 1<<n; mask++ {
		erased := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				erased++
			}
		}
		if erased == 0 || erased > m {
			continue
		}
		shards := make([][]byte, n)
		for i := range shards {
			if mask&(1<<i) == 0 {
				shards[i] = append([]byte(nil), orig[i]...)
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %#b: %v", mask, err)
		}
		// Data shards come back byte-identical; erased parity stays nil
		// (Reconstruct is data-only) ...
		for i := range shards {
			if want := orig[i]; i < k || mask&(1<<i) == 0 {
				if !bytes.Equal(shards[i], want) {
					t.Fatalf("mask %#b: shard %d differs after reconstruct", mask, i)
				}
			} else if shards[i] != nil {
				t.Fatalf("mask %#b: erased parity shard %d was rebuilt", mask, i)
			}
		}
		// ... and re-encoding the recovered data reproduces the original
		// parity, which is how a repair gets the full stripe back.
		for i := k; i < n; i++ {
			shards[i] = make([]byte, len(orig[i]))
		}
		if err := c.EncodeShards(shards); err != nil {
			t.Fatalf("mask %#b: %v", mask, err)
		}
		for i := k; i < n; i++ {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("mask %#b: parity shard %d differs after re-encode", mask, i)
			}
		}
		got, err := c.Join(shards, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mask %#b: data mismatch", mask)
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := New(4, 2)
	data := make([]byte, 100)
	shards, _ := c.Encode(data)
	// Erase 3 shards: only 3 remain < k=4.
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("expected ErrTooFewShards, got %v", err)
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	c, _ := New(3, 2)
	data := []byte("hello world this is a test!")
	shards, _ := c.Encode(data)
	before := make([][]byte, len(shards))
	for i := range shards {
		before[i] = append([]byte(nil), shards[i]...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatal("Reconstruct modified complete shards")
		}
	}
}

func TestVerify(t *testing.T) {
	c, _ := New(4, 2)
	data := make([]byte, 500)
	rand.New(rand.NewSource(9)).Read(data)
	shards, _ := c.Encode(data)
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify on fresh encode: ok=%v err=%v", ok, err)
	}
	shards[5][3] ^= 1 // corrupt one parity byte
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify missed parity corruption: ok=%v err=%v", ok, err)
	}
	shards[5][3] ^= 1
	shards[0][0] ^= 0x80 // corrupt data
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatalf("Verify missed data corruption: ok=%v err=%v", ok, err)
	}
}

func TestVerifyZeroParity(t *testing.T) {
	c, _ := New(3, 0)
	shards, _ := c.Encode([]byte("abcdef"))
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify with m=0: ok=%v err=%v", ok, err)
	}
}

func TestSplitPadding(t *testing.T) {
	c, _ := New(4, 0)
	shards, err := c.Split([]byte{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	// size = ceil(5/4) = 2
	if len(shards[0]) != 2 {
		t.Fatalf("shard size %d, want 2", len(shards[0]))
	}
	want := [][]byte{{1, 2}, {3, 4}, {5, 0}, {0, 0}}
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d = %v, want %v", i, shards[i], want[i])
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	c, _ := New(4, 0)
	if _, err := c.Split(nil); !errors.Is(err, ErrEmptyData) {
		t.Fatalf("expected ErrEmptyData, got %v", err)
	}
}

func TestJoinErrors(t *testing.T) {
	c, _ := New(3, 1)
	shards, _ := c.Encode([]byte("0123456789"))
	if _, err := c.Join(shards[:2], 10); !errors.Is(err, ErrShardCount) {
		t.Fatalf("short shard list: %v", err)
	}
	shards[1] = nil
	if _, err := c.Join(shards, 10); !errors.Is(err, ErrTooFewShards) {
		t.Fatalf("nil data shard: %v", err)
	}
}

func TestEncodeShardsShapeErrors(t *testing.T) {
	c, _ := New(2, 1)
	if err := c.EncodeShards([][]byte{{1}, {2}}); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong count: %v", err)
	}
	if err := c.EncodeShards([][]byte{{1}, {2, 3}, {4}}); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestPropertyRoundTripQuick(t *testing.T) {
	c, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte, eraseSeed int64) bool {
		if len(data) == 0 {
			return true
		}
		shards, err := c.Encode(data)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(eraseSeed))
		for _, i := range rng.Perm(8)[:3] {
			shards[i] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		got, err := c.Join(shards, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode10of14_1MiB(b *testing.B) {
	c, _ := New(10, 4)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct10of14_1MiB(b *testing.B) {
	c, _ := New(10, 4)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)
	orig, _ := c.Encode(data)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, len(orig))
		copy(shards, orig)
		shards[0], shards[3], shards[11], shards[13] = nil, nil, nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}
