package tstamp

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"

	"securearchive/internal/commit"
	"securearchive/internal/group"
	"securearchive/internal/sig"
)

// The opening memo lets VerifyDigest skip g^M·h^R. These tests hold it to
// a reference that never skips anything.

// memoModel is what the reference knows about a chain under test: the
// digest it was opened over, the group, and whether it still is the
// chain NewFromDigest built (an unmarshalled copy holds no opening).
type memoModel struct {
	grp  *group.Group
	orig [sha256.Size]byte
	held bool
}

// opens recomputes the commitment from the live exported fields.
func (m memoModel) opens(c *Chain) bool {
	if !m.held || c.Opening == nil {
		return false
	}
	pc := commit.PedersenCommitmentFromBytes(c.Links[0].Ref)
	return commit.NewPedersen(m.grp).Verify(pc, *c.Opening) == nil
}

// legacy is VerifyDigest as it was before the memo: the 224-bit scalar
// compare plus the full opening check.
func (m memoModel) legacy(c *Chain, d [sha256.Size]byte) bool {
	if !m.opens(c) {
		return false
	}
	return new(big.Int).SetBytes(d[:committedBytes]).Cmp(c.Opening.M) == 0
}

// reference is legacy plus a compare of all 32 digest bytes.
func (m memoModel) reference(c *Chain, d [sha256.Size]byte) bool {
	return d == m.orig && m.legacy(c, d)
}

// check compares the chain against the model on the right digest, a
// random wrong one, and one that differs only beyond the committed scalar.
func (m memoModel) check(t *testing.T, c *Chain, rng *mrand.Rand, when string) {
	t.Helper()
	var wrong [sha256.Size]byte
	rng.Read(wrong[:])
	tail := m.orig
	tail[committedBytes+rng.Intn(sha256.Size-committedBytes)] ^= 1 << uint(rng.Intn(8))
	for name, d := range map[string][sha256.Size]byte{"right": m.orig, "wrong": wrong, "tail": tail} {
		err := c.VerifyDigest(d)
		if err != nil && !errors.Is(err, ErrOpeningFailed) {
			t.Fatalf("%s: %s digest: unexpected error %v", when, name, err)
		}
		if got, want := err == nil, m.reference(c, d); got != want {
			t.Fatalf("%s: %s digest: VerifyDigest accepts=%v, reference=%v (%v)", when, name, got, want, err)
		}
		if err == nil && !m.legacy(c, d) {
			t.Fatalf("%s: %s digest: accepted what the pre-memo check rejects", when, name)
		}
	}
	if got, want := c.VerifyOpening() == nil, m.opens(c); got != want {
		t.Fatalf("%s: VerifyOpening accepts=%v, full re-opening=%v", when, got, want)
	}
}

func newMemoChain(t testing.TB, grp *group.Group, rng *mrand.Rand) (*Chain, memoModel) {
	t.Helper()
	m := memoModel{grp: grp, held: true}
	rng.Read(m.orig[:])
	c, err := NewFromDigest(m.orig, RefCommitment, sig.Ed25519, 0, grp, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

func runMemoSequence(t *testing.T, grp *group.Group, seed int64, steps int) {
	rng := mrand.New(mrand.NewSource(seed))
	c, m := newMemoChain(t, grp, rng)
	// The pristine values, to put back after tampering.
	ref0 := append([]byte(nil), c.Links[0].Ref...)
	op0 := c.Opening
	m0, r0 := new(big.Int).Set(op0.M), new(big.Int).Set(op0.R)
	randScalar := func() *big.Int {
		s, err := grp.RandScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// other picks a replacement for a scalar: unrelated, congruent mod q
	// (opens the same commitment, is not the same value), or an equal copy.
	other := func(v *big.Int) *big.Int {
		switch rng.Intn(3) {
		case 0:
			return randScalar()
		case 1:
			return new(big.Int).Add(v, grp.Q)
		default:
			return new(big.Int).Set(v)
		}
	}
	m.check(t, c, rng, "fresh")
	epoch := 0
	for i := 0; i < steps; i++ {
		var what string
		switch op := rng.Intn(9); op {
		case 0:
			what = "flip Ref byte"
			c.Links[0].Ref[rng.Intn(len(c.Links[0].Ref))] ^= 1 << uint(rng.Intn(8))
		case 1:
			what = "replace Opening.M"
			if c.Opening != nil {
				c.Opening.M = other(m0)
			}
		case 2:
			what = "replace Opening.R"
			if c.Opening != nil {
				c.Opening.R = other(r0)
			}
		case 3:
			what = "mutate Opening.R in place"
			if c.Opening != nil && c.Opening.R != nil {
				c.Opening.R.Add(c.Opening.R, big.NewInt(1))
			}
		case 4:
			what = "replace Opening pointer"
			c.Opening = &commit.PedersenOpening{M: other(m0), R: other(r0)}
		case 5:
			what = "nil Opening"
			c.Opening = nil
		case 6:
			what = "renew"
			epoch += 1 + rng.Intn(5)
			if err := c.Renew(sig.ECDSAP256, epoch, rand.Reader); err != nil {
				t.Fatal(err)
			}
		case 7:
			what = "marshal round trip"
			blob, err := c.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			unheld := m
			unheld.held = false
			unheld.check(t, rt, rng, fmt.Sprintf("seed %d step %d: unmarshalled copy", seed, i))
		case 8:
			what = "restore"
			copy(c.Links[0].Ref, ref0)
			op0.M, op0.R = new(big.Int).Set(m0), new(big.Int).Set(r0)
			c.Opening = op0
			if err := c.VerifyDigest(m.orig); err != nil {
				t.Fatalf("seed %d step %d: restored chain rejected: %v", seed, i, err)
			}
		}
		m.check(t, c, rng, fmt.Sprintf("seed %d step %d: after %s", seed, i, what))
	}
}

// TestMemoDifferential drives seeded random tamper/verify sequences and
// requires the memoised VerifyDigest to agree, state by state, with the
// reference that always re-opens the commitment and compares all 32
// digest bytes — and never to accept what the pre-memo check rejected.
func TestMemoDifferential(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		runMemoSequence(t, group.Default(), seed, 24)
	}
	// The production group, fewer and shorter (every reference check is
	// a 2048-bit exponentiation).
	n := 6
	if testing.Short() {
		n = 2
	}
	for seed := int64(1001); seed < int64(1001+n); seed++ {
		runMemoSequence(t, group.Default(), seed, 10)
	}
}

// TestMemoTamperFallsThrough pins the individual properties the
// differential run covers statistically.
func TestMemoTamperFallsThrough(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	grp := group.Default()
	t.Run("tail bytes are checked", func(t *testing.T) {
		c, m := newMemoChain(t, grp, rng)
		d := m.orig
		d[31] ^= 0x80
		if !m.legacy(c, d) {
			t.Fatal("premise: the pre-memo check ignores digest byte 31")
		}
		if err := c.VerifyDigest(d); !errors.Is(err, ErrOpeningFailed) {
			t.Fatalf("digest differing in byte 31 accepted: %v", err)
		}
	})
	t.Run("congruent R re-opens in full and passes", func(t *testing.T) {
		c, m := newMemoChain(t, grp, rng)
		c.Opening.R = new(big.Int).Add(c.Opening.R, grp.Q)
		if bind, ok := c.binding(); !ok || bind == c.memo.bind {
			t.Fatal("binding did not notice R changed")
		}
		if err := c.VerifyDigest(m.orig); err != nil {
			t.Fatalf("opening that still opens rejected: %v", err)
		}
	})
	t.Run("consistent re-commitment to another digest is refused", func(t *testing.T) {
		c, m := newMemoChain(t, grp, rng)
		var d2 [sha256.Size]byte
		rng.Read(d2[:])
		pc, op, err := commit.NewPedersen(grp).Commit(new(big.Int).SetBytes(d2[:committedBytes]), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		c.Links[0].Ref, c.Opening = pc.Bytes(), &op
		if c.VerifyOpening() != nil {
			t.Fatal("premise: the swapped-in pair opens")
		}
		for _, d := range [][sha256.Size]byte{m.orig, d2} {
			if err := c.VerifyDigest(d); !errors.Is(err, ErrOpeningFailed) {
				t.Fatalf("swapped commitment accepted: %v", err)
			}
		}
	})
	t.Run("nil, negative and oversized scalars are rejected without panic", func(t *testing.T) {
		c, m := newMemoChain(t, grp, rng)
		m0, r0 := c.Opening.M, c.Opening.R
		for _, bad := range []*big.Int{nil, big.NewInt(-1), new(big.Int).Lsh(big.NewInt(1), 8*memoField+1)} {
			c.Opening.M, c.Opening.R = m0, bad
			if err := c.VerifyDigest(m.orig); !errors.Is(err, ErrOpeningFailed) {
				t.Fatalf("R=%v accepted: %v", bad, err)
			}
			c.Opening.M, c.Opening.R = bad, r0
			if err := c.VerifyDigest(m.orig); !errors.Is(err, ErrOpeningFailed) {
				t.Fatalf("M=%v accepted: %v", bad, err)
			}
		}
		c.Opening.M, c.Opening.R = m0, r0
		if err := c.VerifyDigest(m.orig); err != nil {
			t.Fatalf("restored chain rejected: %v", err)
		}
	})
	t.Run("VerifyOpening ignores the memo", func(t *testing.T) {
		// Forge the one state the API cannot reach — a memo vouching for
		// a commitment that does not open — to show the evidence path
		// does not rest on it.
		c, m := newMemoChain(t, grp, rng)
		c.Links[0].Ref[0] ^= 1
		c.memo.bind, _ = c.binding()
		if err := c.VerifyDigest(m.orig); err != nil {
			t.Fatalf("premise: the forged memo satisfies the read path: %v", err)
		}
		if err := c.VerifyOpening(); !errors.Is(err, ErrOpeningFailed) {
			t.Fatalf("VerifyOpening trusted the memo: %v", err)
		}
	})
	t.Run("renewal keeps the memo", func(t *testing.T) {
		c, m := newMemoChain(t, grp, rng)
		bind := c.memo.bind
		if err := c.Renew(sig.ECDSAP256, 9, rand.Reader); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.binding(); !ok || got != bind || c.memo.bind != bind {
			t.Fatal("Renew disturbed the binding")
		}
		if err := c.VerifyDigest(m.orig); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUnmarshalledChainHoldsNoOpening pins marshal.go's doc: a chain
// rebuilt from its public portion can Verify and Renew, and in
// commitment mode refuses every data check with "opening not held".
func TestUnmarshalledChainHoldsNoOpening(t *testing.T) {
	c, err := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, group.Default(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(1, nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := rt.Renew(sig.ECDSAP256, 2, rand.Reader); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if err := rt.Verify(3, nil); err != nil {
		t.Fatalf("Verify after Renew: %v", err)
	}
	for name, err := range map[string]error{
		"VerifyData":    rt.VerifyData(doc),
		"VerifyDigest":  rt.VerifyDigest(sha256.Sum256(doc)),
		"VerifyOpening": rt.VerifyOpening(),
	} {
		if !errors.Is(err, ErrOpeningFailed) || !strings.Contains(err.Error(), "opening not held") {
			t.Errorf("%s on an unmarshalled commitment chain = %v, want ErrOpeningFailed: opening not held", name, err)
		}
	}
	// The original is untouched by having been marshalled.
	if err := c.VerifyData(doc); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyOpening(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDigestZeroAllocs is the cost gate that needs no clock: a
// 2048-bit big.Int.Exp allocates, so 0 allocs/op means the memoised
// read-path check ran no exponentiation (and built its binding on the
// stack).
func TestVerifyDigestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	digest := sha256.Sum256(doc)
	c, err := NewFromDigest(digest, RefCommitment, sig.Ed25519, 0, group.Default(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var verr error
	if n := testing.AllocsPerRun(200, func() { verr = c.VerifyDigest(digest) }); n != 0 || verr != nil {
		t.Fatalf("memoised VerifyDigest: %.0f allocs/op (err %v), want 0", n, verr)
	}
	if n := testing.AllocsPerRun(5, func() { verr = c.VerifyOpening() }); n == 0 || verr != nil {
		t.Fatalf("VerifyOpening: %.0f allocs/op (err %v); the full re-opening cannot be free", n, verr)
	}
}

// TestNewFromDigestAllocBytes is the put-side cost gate: opening a chain
// on the production group allocates under 5 KB. The one-pass walk of the
// fixed-base tables leaves it near 3.8 KB; one generic big.Int.Exp alone
// allocates 12 KB, so a modexp that creeps back onto the write path
// cannot hide here.
func TestNewFromDigestAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	digest := sha256.Sum256(doc)
	open := func() {
		if _, err := NewFromDigest(digest, RefCommitment, sig.Ed25519, 0, group.Default(), rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	open() // builds the tables
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		open()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 5<<10 {
		t.Fatalf("NewFromDigest allocates %d bytes per call, want < 5 KB", per)
	} else {
		t.Logf("NewFromDigest: %d bytes allocated per call", per)
	}
}

var benchErr error

// BenchmarkChainVerifyDigest prices the read-path check per reference
// mode on the production group, next to the evidence-path re-opening it
// no longer runs.
func BenchmarkChainVerifyDigest(b *testing.B) {
	digest := sha256.Sum256(doc)
	for _, tc := range []struct {
		name string
		mode RefMode
		full bool
	}{{"hash", RefHash, false}, {"commitment", RefCommitment, false}, {"opening-full", RefCommitment, true}} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := NewFromDigest(digest, tc.mode, sig.Ed25519, 0, group.Default(), rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.full {
					benchErr = c.VerifyOpening()
				} else {
					benchErr = c.VerifyDigest(digest)
				}
			}
			if benchErr != nil {
				b.Fatal(benchErr)
			}
		})
	}
}
