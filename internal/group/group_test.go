package group

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

func TestTestGroupParameters(t *testing.T) {
	g := Test()
	// p = 2q + 1
	p2 := new(big.Int).Lsh(g.Q, 1)
	p2.Add(p2, big.NewInt(1))
	if p2.Cmp(g.P) != 0 {
		t.Fatal("p != 2q+1")
	}
	if !g.P.ProbablyPrime(32) || !g.Q.ProbablyPrime(32) {
		t.Fatal("p or q not prime")
	}
	if g.P.BitLen() != 256 {
		t.Fatalf("test group has %d-bit p, want 256", g.P.BitLen())
	}
}

func TestDefaultGroupParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-bit primality checks are slow")
	}
	g := Default()
	if g.P.BitLen() != 2048 {
		t.Fatalf("default p is %d bits, want 2048", g.P.BitLen())
	}
	p2 := new(big.Int).Lsh(g.Q, 1)
	p2.Add(p2, big.NewInt(1))
	if p2.Cmp(g.P) != 0 {
		t.Fatal("p != 2q+1")
	}
	if !g.P.ProbablyPrime(16) || !g.Q.ProbablyPrime(16) {
		t.Fatal("RFC 3526 modulus failed primality check")
	}
}

func TestGeneratorsHaveOrderQ(t *testing.T) {
	g := Test()
	if !g.Contains(g.G) {
		t.Fatal("G not in subgroup")
	}
	if !g.Contains(g.H) {
		t.Fatal("H not in subgroup")
	}
	if g.G.Cmp(g.H) == 0 {
		t.Fatal("G == H")
	}
	one := big.NewInt(1)
	if g.G.Cmp(one) == 0 || g.H.Cmp(one) == 0 {
		t.Fatal("degenerate generator")
	}
}

func TestContainsRejects(t *testing.T) {
	g := Test()
	if g.Contains(big.NewInt(0)) {
		t.Error("0 accepted")
	}
	if g.Contains(new(big.Int).Neg(big.NewInt(3))) {
		t.Error("negative accepted")
	}
	if g.Contains(g.P) {
		t.Error("p accepted")
	}
	// A non-residue: -1 mod p = p-1 has order 2, not q.
	pm1 := new(big.Int).Sub(g.P, big.NewInt(1))
	if g.Contains(pm1) {
		t.Error("p-1 (order 2) accepted")
	}
	if g.Contains(nil) {
		t.Error("nil accepted")
	}
}

func TestRandScalarRange(t *testing.T) {
	g := Test()
	for i := 0; i < 100; i++ {
		k, err := g.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if k.Sign() < 0 || k.Cmp(g.Q) >= 0 {
			t.Fatalf("scalar out of range: %v", k)
		}
	}
}

func TestExpHomomorphism(t *testing.T) {
	g := Test()
	a, _ := g.RandScalar(rand.Reader)
	b, _ := g.RandScalar(rand.Reader)
	// g^a * g^b == g^(a+b mod q)
	lhs := g.Mul(g.ExpG(a), g.ExpG(b))
	sum := new(big.Int).Add(a, b)
	sum.Mod(sum, g.Q)
	rhs := g.ExpG(sum)
	if lhs.Cmp(rhs) != 0 {
		t.Fatal("exponent homomorphism broken")
	}
}

func TestExpIdentity(t *testing.T) {
	g := Test()
	if g.ExpG(big.NewInt(0)).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("g^0 != 1")
	}
	if g.ExpG(g.Q).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("g^q != 1: generator order is not q")
	}
	if g.ExpH(g.Q).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("h^q != 1")
	}
}

func TestReduceScalarEmbedsLosslessly(t *testing.T) {
	g := Test()
	cap := g.ScalarCapacity()
	if cap < 16 {
		t.Fatalf("test group capacity %d too small", cap)
	}
	msg := make([]byte, cap)
	for i := range msg {
		msg[i] = byte(i*7 + 1)
	}
	s := g.ReduceScalar(msg)
	// Recover: the embedded value must round-trip through Bytes().
	got := s.Bytes()
	// Strip leading zeros from msg for comparison.
	want := new(big.Int).SetBytes(msg).Bytes()
	if !bytes.Equal(got, want) {
		t.Fatal("scalar embedding is lossy within capacity")
	}
}

func TestDeterministicInstances(t *testing.T) {
	if Test() != Test() {
		t.Fatal("Test() returned different instances")
	}
	if Default() != Default() {
		t.Fatal("Default() returned different instances")
	}
	if Test().P.Cmp(Default().P) == 0 {
		t.Fatal("test and default groups identical")
	}
}

func BenchmarkExpTestGroup(b *testing.B) {
	g := Test()
	k, _ := g.RandScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpG(k)
	}
}

func BenchmarkExpDefaultGroup(b *testing.B) {
	g := Default()
	k, _ := g.RandScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpG(k)
	}
}

// oracle is the generic big.Int.Exp the fixed-base tables replaced; it
// survives only here, as the reference they are compared against.
func oracle(g *Group, base, e *big.Int) *big.Int { return new(big.Int).Exp(base, e, g.P) }

func checkFixed(t *testing.T, g *Group, e *big.Int) {
	t.Helper()
	if got, want := g.ExpG(e), oracle(g, g.G, e); got.Cmp(want) != 0 {
		t.Fatalf("ExpG(%v) [%d bits] = %v, want %v", e, e.BitLen(), got, want)
	}
	if got, want := g.ExpH(e), oracle(g, g.H, e); got.Cmp(want) != 0 {
		t.Fatalf("ExpH(%v) [%d bits] = %v, want %v", e, e.BitLen(), got, want)
	}
}

// TestFixedBaseMatchesGenericExp is the differential: on both groups the
// comb tables return, bit for bit, what big.Int.Exp returns — for seeded
// random scalars of every bit-length class (with the short/full table
// switch at 256 bits straddled) and for the scalars at and outside the
// ends of [0, q).
func TestFixedBaseMatchesGenericExp(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Group
	}{{"test", Test()}, {"default", Default()}} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			rng := mrand.New(mrand.NewSource(20))
			qBits := g.Q.BitLen()
			lengths := []int{1, 2, 63, 64, 65, 223, 224, 225, 254, 255, 256, 257, qBits - 1, qBits}
			for len(lengths) < 200 {
				lengths = append(lengths, 1+rng.Intn(qBits))
			}
			for _, n := range lengths {
				if n > qBits {
					continue
				}
				// Exactly n bits: random below 2^(n-1), top bit forced.
				e := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(n-1)))
				e.SetBit(e, n-1, 1)
				if e.Cmp(g.Q) >= 0 {
					e.Sub(g.Q, one)
				}
				checkFixed(t, g, e)
			}
			for i := 0; i < 32; i++ { // uniform over Z_q, as RandScalar draws r
				checkFixed(t, g, new(big.Int).Rand(rng, g.Q))
			}
			for _, e := range []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(2),
				new(big.Int).Sub(g.Q, one), g.Q, new(big.Int).Add(g.Q, big.NewInt(5)),
				big.NewInt(-7), new(big.Int).Lsh(g.Q, 3),
			} {
				before := new(big.Int).Set(e)
				checkFixed(t, g, e)
				if e.Cmp(before) != 0 {
					t.Fatalf("exponent %v mutated to %v", before, e)
				}
			}
		})
	}
}

// TestFixedBaseBuildsOncePerGroup races eight goroutines onto the first
// ExpH of a group no one has used yet (run under -race): all must get the
// right element, and the table they share must be one table.
func TestFixedBaseBuildsOncePerGroup(t *testing.T) {
	g := fromSafePrime(Test().P)
	e := new(big.Int).Sub(g.Q, big.NewInt(12345))
	want := oracle(g, g.H, e)
	var wg sync.WaitGroup
	tables := make([]*comb, 8)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if g.ExpH(e).Cmp(want) != 0 {
				t.Error("raced ExpH returned a wrong element")
			}
			tables[i] = g.fixedH.short
		}(i)
	}
	wg.Wait()
	for _, c := range tables {
		if c == nil || c != tables[0] {
			t.Fatal("goroutines saw different tables: built more than once")
		}
	}
	if g.fixedG.short != nil {
		t.Fatal("ExpH built g's table")
	}
}

// TestFixedBaseTableSize pins the geometry's memory cost: both
// generators' tables of the production group stay under 1.5 MB.
func TestFixedBaseTableSize(t *testing.T) {
	g := Default()
	g.ExpG(g.Q)
	g.ExpH(g.Q)
	total := 0
	for _, c := range []*comb{g.fixedG.short, g.fixedG.full, g.fixedH.short, g.fixedH.full} {
		total += len(c.slab) * bits.UintSize / 8
	}
	if total > 1500<<10 {
		t.Fatalf("fixed-base tables hold %d bytes, want <= 1.5 MB", total)
	}
}

var benchSink *big.Int

func benchGenericVsFixed(b *testing.B, base func(*Group) *big.Int, fixed func(*Group, *big.Int) *big.Int, e *big.Int) {
	g := Default()
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = oracle(g, base(g), e)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		fixed(g, e) // table built outside the timed region
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = fixed(g, e)
		}
	})
}

// BenchmarkExpH is the h^r of every commitment: a full-width scalar.
func BenchmarkExpH(b *testing.B) {
	r, _ := Default().RandScalar(rand.Reader)
	benchGenericVsFixed(b, func(g *Group) *big.Int { return g.H }, (*Group).ExpH, r)
}

// BenchmarkExpG224 is the g^m of a chain commitment: a 224-bit digest
// prefix as the scalar.
func BenchmarkExpG224(b *testing.B) {
	d := sha256.Sum256([]byte("BenchmarkExpG224"))
	m := new(big.Int).SetBytes(d[:28])
	benchGenericVsFixed(b, func(g *Group) *big.Int { return g.G }, (*Group).ExpG, m)
}

// BenchmarkFixedBaseBuild is the one-time cost the first ExpG or ExpH on
// a group pays: both of one generator's tables.
func BenchmarkFixedBaseBuild(b *testing.B) {
	p := Default().P
	for i := 0; i < b.N; i++ {
		g := fromSafePrime(p)
		benchSink = g.ExpH(one)
	}
}
