package bufpool

import "testing"

func TestGetSizes(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, 8 << 20, (8 << 20) + 1} {
		b := Get(n)
		if len(b.B) != n {
			t.Fatalf("Get(%d): len=%d", n, len(b.B))
		}
		if n <= 8<<20 && n > 0 && cap(b.B) < n {
			t.Fatalf("Get(%d): cap=%d < n", n, cap(b.B))
		}
		b.Release()
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{
		1:         0,
		512:       0,
		513:       1,
		1024:      1,
		8 << 20:   numClasses - 1,
		8<<20 + 1: -1,
		1 << 30:   -1,
	}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestReuseAndOverflow(t *testing.T) {
	b := Get(4096)
	p := &b.B[0]
	b.Release()
	b2 := Get(4000)
	// Not guaranteed by sync.Pool, but on a single goroutine with no GC
	// in between the same buffer comes back; if it does, the backing
	// array must be shared.
	if len(b2.B) != 4000 {
		t.Fatalf("len=%d", len(b2.B))
	}
	_ = p
	b2.Release()

	huge := Get(9 << 20)
	if huge.class != -1 {
		t.Fatalf("oversize buffer got class %d", huge.class)
	}
	huge.Release() // must not pool or panic
	var nilBuf *Buf
	nilBuf.Release() // nil-safe
}

func TestZero(t *testing.T) {
	b := Get(128)
	for i := range b.B {
		b.B[i] = 0xff
	}
	b.Zero()
	for i, v := range b.B {
		if v != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	b.Release()
}

// TestSteadyStateZeroAllocs is the pool's own alloc gate: a warm
// Get/Release cycle of a fixed size class must not touch the allocator.
func TestSteadyStateZeroAllocs(t *testing.T) {
	// Warm the class.
	for i := 0; i < 8; i++ {
		Get(32 << 10).Release()
	}
	allocs := testing.AllocsPerRun(200, func() {
		b := Get(32 << 10)
		b.B[0] = 1
		b.Release()
	})
	// A genuine per-op allocation reads ≥ 1.0; anything below is a stray
	// GC clearing the pool mid-run, which is not a regression.
	if allocs >= 0.5 {
		t.Fatalf("steady-state Get/Release allocates %.2f/op, want 0", allocs)
	}
}
