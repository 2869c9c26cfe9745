package group

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"sync"
	"testing"
)

// candidate is cand(label, c) of the defaultSeed comment in group.go.
func candidate(label string, c uint32, blocks int) *big.Int {
	var be [4]byte
	binary.BigEndian.PutUint32(be[:], c)
	x := hashToInt(defaultSeed+label+string(be[:]), blocks)
	return x.SetBit(x, 256*blocks-1, 1)
}

// TestDefaultGroupParameters is the proof that the hard-coded constants
// are what the seed says, and the generator that produced them: it runs
// both searches from counter 0 (`-v` prints the results in group.go's
// form), then checks the group Default() serves against them.
func TestDefaultGroupParameters(t *testing.T) {
	if testing.Short() {
		t.Skip("searches ~200 2048-bit candidates for a prime")
	}
	var q *big.Int
	qc := uint32(0)
	for ; ; qc++ {
		q = candidate("/q", qc, 1)
		if q.SetBit(q, 0, 1).ProbablyPrime(32) {
			break
		}
	}
	var p *big.Int
	pc, q2 := uint32(0), new(big.Int).Lsh(q, 1)
	for ; ; pc++ {
		x := candidate("/p", pc, 8)
		c := new(big.Int).Mod(x, q2)
		p = x.Sub(x, c.Sub(c, one)) // p ≡ 1 mod 2q
		if p.BitLen() == 2048 && p.ProbablyPrime(32) {
			break
		}
	}
	t.Logf("defaultQCounter = %d\ndefaultPCounter = %d\ndefaultQ = %X\ndefaultP = %X", qc, pc, q, p)
	if qc != defaultQCounter || pc != defaultPCounter {
		t.Fatalf("searches stopped at counters q=%d p=%d, constants say %d and %d", qc, pc, defaultQCounter, defaultPCounter)
	}

	g := Default()
	if g.Q.Cmp(q) != 0 || g.P.Cmp(p) != 0 {
		t.Fatal("hard-coded p or q is not what the seed derives")
	}
	if g.P.BitLen() != 2048 || g.Q.BitLen() != 256 {
		t.Fatalf("default group is %d/%d bits, want 2048/256", g.P.BitLen(), g.Q.BitLen())
	}
	pm1 := new(big.Int).Sub(g.P, one)
	cofactor, rem := new(big.Int).QuoRem(pm1, g.Q, new(big.Int))
	if rem.Sign() != 0 {
		t.Fatal("q does not divide p-1")
	}
	for _, gen := range []struct {
		tag string
		x   *big.Int
	}{{"/g", g.G}, {"/h", g.H}} {
		want := new(big.Int).Mod(hashToInt(defaultSeed+gen.tag, 8), g.P)
		if want.Exp(want, cofactor, g.P); gen.x.Cmp(want) != 0 {
			t.Fatalf("generator %s is not its tag hashed into the subgroup", gen.tag)
		}
		// Order divides the prime q and the element is not 1: order q.
		if gen.x.Cmp(one) == 0 || !g.Contains(gen.x) {
			t.Fatalf("generator %s does not have order q", gen.tag)
		}
	}
	if g.G.Cmp(g.H) == 0 {
		t.Fatal("g == h")
	}
}

// rfc3526Prime2048 is the 2048-bit MODP group modulus (RFC 3526 §3), a
// safe prime and the production modulus before the 2048/256 group. Its q
// is 2047 bits, wider than the comb: it survives here as the group whose
// exponents take the big.Int.Exp fallback.
const rfc3526Prime2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
	"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
	"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
	"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
	"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
	"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
	"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
	"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
	"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
	"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
	"15728E5A8AACAA68FFFFFFFFFFFFFFFF"

// safePrime256 is a 256-bit safe prime p = 2q+1 (the first above
// 2^255 + 594), whose 255-bit q is one bit short of the comb: its group
// covers the comb's edge from below.
const safePrime256 = "800000000000000000000000000000000000000000000000000000000002FF7F"

func safePrime2048(t testing.TB) *Group { return safePrimeGroup(t, rfc3526Prime2048) }

// safePrimeGroup builds a fresh Group from the safe prime p in hex.
func safePrimeGroup(t testing.TB, hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		t.Fatal("bad safe-prime constant")
	}
	return fromSafePrime(p)
}

// fromSafePrime builds a Group from a safe prime p, with g = 4 and h
// hashed into the quadratic-residue subgroup.
func fromSafePrime(p *big.Int) *Group {
	two := big.NewInt(2)
	q := new(big.Int).Sub(p, one)
	q.Rsh(q, 1)
	g := big.NewInt(4) // 2^2: a QR, so order divides q; q prime and g != 1 → order q
	// Derive h with an unknown discrete log: hash a domain tag to bytes,
	// reduce mod p, square to land in QR(p). Nothing-up-my-sleeve.
	seed := sha256.Sum256([]byte("securearchive/group h-generator v1"))
	hBase := new(big.Int).SetBytes(seed[:])
	for {
		h := new(big.Int).Exp(hBase, two, p)
		if h.Cmp(one) != 0 && h.Cmp(g) != 0 {
			return &Group{P: p, Q: q, G: g, H: h}
		}
		hBase.Add(hBase, one)
	}
}

func TestGeneratorsHaveOrderQ(t *testing.T) {
	g := Default()
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
	g := Default()
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
	g := Default()
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
	g := Default()
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
	g := Default()
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
	g := Default()
	cap := g.ScalarCapacity()
	if cap < 16 {
		t.Fatalf("capacity %d too small", cap)
	}
	msg := make([]byte, cap)
	for i := range msg {
		msg[i] = byte(i*7 + 1)
	}
	// ScalarCapacity bytes read as an integer stay below q, so reducing
	// into Z_q leaves them intact and they round-trip through Bytes().
	s := new(big.Int).Mod(new(big.Int).SetBytes(msg), g.Q)
	got := s.Bytes()
	// Strip leading zeros from msg for comparison.
	want := new(big.Int).SetBytes(msg).Bytes()
	if !bytes.Equal(got, want) {
		t.Fatal("scalar embedding is lossy within capacity")
	}
}

func TestDeterministicInstances(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned different instances")
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

// TestFixedBaseMatchesGenericExp is the differential: on the production
// group (256-bit q), on the 256-bit safe-prime group (255-bit q), and on a
// safe-prime 2048-bit group whose q is wider than the
// comb (so its long exponents take the big.Int.Exp fallback and its short
// ones the table), ExpG/ExpH return, bit for bit, what big.Int.Exp
// returns — for seeded random scalars of every bit-length class (with the
// comb's 256-bit edge straddled) and for the scalars at and outside the
// ends of [0, q).
func TestFixedBaseMatchesGenericExp(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *Group
		random int
	}{{"safeprime256", safePrimeGroup(t, safePrime256), 200}, {"default", Default(), 200}, {"safeprime", safePrime2048(t), 40}} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			rng := mrand.New(mrand.NewSource(20))
			qBits := g.Q.BitLen()
			lengths := []int{1, 2, 63, 64, 65, 223, 224, 225, 254, 255, 256, 257, qBits - 1, qBits}
			for len(lengths) < tc.random {
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
			for i := 0; i < tc.random/6; i++ { // uniform over Z_q, as RandScalar draws r
				checkFixed(t, g, new(big.Int).Rand(rng, g.Q))
			}
			for _, e := range edgeScalars(g) {
				before := new(big.Int).Set(e)
				checkFixed(t, g, e)
				if e.Cmp(before) != 0 {
					t.Fatalf("exponent %v mutated to %v", before, e)
				}
			}
		})
	}
}

// edgeScalars are the exponents at and outside the ends of [0, q).
func edgeScalars(g *Group) []*big.Int {
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(g.Q, one), g.Q, new(big.Int).Add(g.Q, big.NewInt(5)),
		big.NewInt(-7), new(big.Int).Lsh(g.Q, 3),
	}
}

// TestExpGHMatchesGenericExp is the differential for the multi-term walk:
// g^m·h^r from one pass over both tables equals the two big.Int.Exp
// results multiplied — for terms of unequal length (a 224-bit digest
// scalar beside a full-width r, and the reverse), for every pair of edge
// scalars, and on the safe-prime group where one term walks the comb
// while the other falls back.
func TestExpGHMatchesGenericExp(t *testing.T) {
	for _, g := range []*Group{safePrimeGroup(t, safePrime256), Default(), safePrime2048(t)} {
		rng := mrand.New(mrand.NewSource(22))
		check := func(m, r *big.Int) {
			t.Helper()
			want := g.Mul(oracle(g, g.G, m), oracle(g, g.H, r))
			if got := g.ExpGH(m, r); got.Cmp(want) != 0 {
				t.Fatalf("%d-bit q: ExpGH(%v, %v) = %v, want %v", g.Q.BitLen(), m, r, got, want)
			}
		}
		for i := 0; i < 24; i++ {
			short := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(1+rng.Intn(224))))
			full := new(big.Int).Rand(rng, g.Q)
			check(short, full)
			check(full, short)
			check(full, new(big.Int).Rand(rng, g.Q))
		}
		edges := edgeScalars(g)
		for _, m := range edges {
			for _, r := range edges {
				check(m, r)
			}
		}
	}
}

// TestFixedBaseBuildsOncePerGroup races eight goroutines onto the first
// ExpH of a group no one has used yet (run under -race): all must get the
// right element, and the table they share must be one table.
func TestFixedBaseBuildsOncePerGroup(t *testing.T) {
	g := safePrimeGroup(t, safePrime256)
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
			tables[i] = g.fixedH.table
		}(i)
	}
	wg.Wait()
	for _, c := range tables {
		if c == nil || c != tables[0] {
			t.Fatal("goroutines saw different tables: built more than once")
		}
	}
	if g.fixedG.table != nil {
		t.Fatal("ExpH built g's table")
	}
}

// TestFixedBaseTableSize pins the geometry's memory cost: the two
// generators' tables of the production group, one comb each, stay under
// 300 KB (256 KB of entries).
func TestFixedBaseTableSize(t *testing.T) {
	g := Default()
	g.ExpGH(g.Q, g.Q)
	total := 0
	for _, c := range []*comb{g.fixedG.table, g.fixedH.table} {
		total += len(c.slab) * bits.UintSize / 8
	}
	if total > 300<<10 {
		t.Fatalf("fixed-base tables hold %d bytes, want <= 300 KB", total)
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

// BenchmarkExpH is the h^r of every commitment: a scalar uniform over Z_q.
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
// a group pays: one generator's table.
func BenchmarkFixedBaseBuild(b *testing.B) {
	d := Default()
	for i := 0; i < b.N; i++ {
		g := &Group{P: d.P, Q: d.Q, G: d.G, H: d.H}
		benchSink = g.ExpH(one)
	}
}
