package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestCachedReturnsSameCode(t *testing.T) {
	a, err := Cached(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Cached(10,4,1) returned distinct codes")
	}
	c, err := Cached(10, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct parallelism shares a code")
	}
	if _, err := Cached(0, 1, 0); err == nil {
		t.Fatal("invalid shape accepted")
	}
	// Encode still works through a cached code.
	data := []byte("cached code smoke test payload")
	shards, err := a.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Join(shards, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestVerifyZeroAllocs gates the pooled scrub-path scratch: a warm Verify
// on a sub-grain stripe must not touch the allocator.
func TestVerifyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; gate runs in non-race builds")
	}
	c, err := Cached(10, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 48<<10)
	rand.New(rand.NewSource(9)).Read(data)
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if ok, err := c.Verify(shards); err != nil || !ok {
			t.Fatalf("warm verify: ok=%v err=%v", ok, err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Verify(shards)
	})
	if allocs >= 0.5 {
		t.Fatalf("steady-state Verify allocates %.2f/op, want 0", allocs)
	}
}
