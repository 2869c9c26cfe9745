package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
)

// Unit tests for the read cache's mechanisms in isolation — SLRU
// segmentation, the TinyLFU admission filter, epoch keying, and tenant
// shares — plus vault-level checks that the hit path serves exactly
// what the miss path decoded and that every mutator invalidates.
// The cross-cutting coherence proofs (differential, property, hammer)
// live in cache_coherence_test.go.

func fill(id string, n int) []byte {
	b := make([]byte, n)
	seed := cacheHash(id)
	for i := range b {
		seed = seed*6364136223846793005 + 1442695040888963407
		b[i] = byte(seed >> 56)
	}
	return b
}

func TestCacheEpochKeying(t *testing.T) {
	rc := newReadCache(1<<20, 1.0)
	rc.insert("a", 3, fill("a", 100))
	if _, ok := rc.get("a", 3); !ok {
		t.Fatal("same-epoch lookup missed")
	}
	if _, ok := rc.get("a", 4); ok {
		t.Fatal("entry served at a later epoch")
	}
	if _, ok := rc.get("a", 2); ok {
		t.Fatal("entry served at an earlier epoch")
	}
	// Re-insert at the new epoch replaces the stale entry.
	rc.insert("a", 4, fill("a4", 100))
	got, ok := rc.get("a", 4)
	if !ok || !bytes.Equal(got, fill("a4", 100)) {
		t.Fatal("replacement at new epoch not served")
	}
	if rc.stats().Entries != 1 {
		t.Fatalf("replacement leaked entries: %+v", rc.stats())
	}
}

func TestCacheInvalidate(t *testing.T) {
	rc := newReadCache(1<<20, 1.0)
	rc.insert("a", 1, fill("a", 64))
	rc.insert("b", 1, fill("b", 64))
	rc.invalidate("a")
	if _, ok := rc.get("a", 1); ok {
		t.Fatal("invalidated entry served")
	}
	if _, ok := rc.get("b", 1); !ok {
		t.Fatal("invalidate removed the wrong entry")
	}
	rc.invalidate("missing") // no-op must not panic or skew accounting
	s := rc.stats()
	if s.Entries != 1 || s.Bytes != 64 {
		t.Fatalf("accounting after invalidate: %+v", s)
	}
}

func TestCacheByteBudgetAndMaxEntry(t *testing.T) {
	rc := newReadCache(1024, 1.0)
	// maxEntry = 1024/8 = 128: a larger object bypasses the cache.
	rc.insert("big", 1, fill("big", 129))
	if _, ok := rc.get("big", 1); ok {
		t.Fatal("oversize entry admitted")
	}
	for i := 0; i < 8; i++ {
		rc.insert(fmt.Sprintf("o%d", i), 1, fill(fmt.Sprintf("o%d", i), 128))
	}
	s := rc.stats()
	if s.Bytes > 1024 {
		t.Fatalf("budget exceeded: %d > 1024", s.Bytes)
	}
	if s.Entries != 8 {
		t.Fatalf("expected 8 resident entries, got %d", s.Entries)
	}
}

// TestCacheAdmissionProtectsHotSet is the filter's reason to exist: a
// one-pass cold scan over many once-seen keys must not flush a hot set
// that has been touched repeatedly.
func TestCacheAdmissionProtectsHotSet(t *testing.T) {
	rc := newReadCache(4096, 1.0) // maxEntry 512
	hot := []string{"hot/a", "hot/b", "hot/c", "hot/d"}
	for _, id := range hot {
		rc.insert(id, 1, fill(id, 512))
	}
	// Establish frequency: every hot key touched several times (each get
	// also promotes it into the protected segment).
	for pass := 0; pass < 4; pass++ {
		for _, id := range hot {
			if _, ok := rc.get(id, 1); !ok {
				t.Fatalf("hot key %s not resident before scan", id)
			}
		}
	}
	// Cold scan: 64 distinct keys, each seen exactly once. Inserting one
	// requires evicting a victim with a higher frequency estimate, so
	// admissions must be rejected.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("scan/%d", i)
		rc.get(id, 1) // the miss that precedes a fill
		rc.insert(id, 1, fill(id, 512))
	}
	for _, id := range hot {
		if _, ok := rc.get(id, 1); !ok {
			t.Fatalf("cold scan flushed hot key %s", id)
		}
	}
	if s := rc.stats(); s.AdmitRejects == 0 {
		t.Fatalf("scan admitted everything: %+v", s)
	}
}

func TestCacheSLRUDemotion(t *testing.T) {
	// protCap = 80% of 1000 = 800, maxEntry = 125. Fill the cache with 8
	// entries and promote them all: the protected segment must shed back
	// under its cap instead of growing to the full budget.
	rc := newReadCache(1000, 1.0)
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("e%d", i)
		rc.insert(ids[i], 1, fill(ids[i], 125))
	}
	for _, id := range ids {
		rc.get(id, 1) // promote
	}
	rc.mu.Lock()
	prot := rc.protBytes
	rc.mu.Unlock()
	if prot > 800 {
		t.Fatalf("protected segment over cap: %d > 800", prot)
	}
	// Every entry is still resident — demotion moves to probation, it
	// does not evict.
	for _, id := range ids {
		if _, ok := rc.get(id, 1); !ok {
			t.Fatalf("demotion evicted %s", id)
		}
	}
}

// TestCacheTenantShare pins the fairness rule: an owner pushed past its
// share evicts its own coldest entries and never touches another
// tenant's residency.
func TestCacheTenantShare(t *testing.T) {
	rc := newReadCache(4096, 0.25) // 1024 bytes per owner
	for i := 0; i < 3; i++ {
		rc.insert(fmt.Sprintf("alice/%d", i), 1, fill("a", 256))
		rc.insert(fmt.Sprintf("bob/%d", i), 1, fill("b", 256))
	}
	// Alice blows past her share; every eviction must come from alice/*.
	for i := 3; i < 10; i++ {
		rc.insert(fmt.Sprintf("alice/%d", i), 1, fill("a", 256))
	}
	s := rc.stats()
	if s.OwnerBytes["alice"] > 1024 {
		t.Fatalf("alice over her share: %d > 1024", s.OwnerBytes["alice"])
	}
	if s.OwnerBytes["bob"] != 768 {
		t.Fatalf("bob's residency disturbed: %d != 768", s.OwnerBytes["bob"])
	}
	for i := 0; i < 3; i++ {
		if _, ok := rc.get(fmt.Sprintf("bob/%d", i), 1); !ok {
			t.Fatalf("alice's overflow evicted bob/%d", i)
		}
	}
	// An entry larger than the whole share is refused, not force-fitted.
	before := rc.stats().AdmitRejects
	rc.insert("carol/huge", 1, fill("c", 2048)) // maxEntry=512 rejects first; use share-size probe
	rc.insert("carol/big", 1, fill("c", 300))
	rc.insert("carol/big2", 1, fill("c", 300))
	rc.insert("carol/big3", 1, fill("c", 300))
	rc.insert("carol/big4", 1, fill("c", 300)) // 4th pushes past 1024 → evicts carol's own
	s = rc.stats()
	if s.OwnerBytes["carol"] > 1024 {
		t.Fatalf("carol over her share: %d", s.OwnerBytes["carol"])
	}
	_ = before
}

func TestCacheOwnerParsing(t *testing.T) {
	cases := map[string]string{
		"tenant1/obj":    "tenant1",
		"tenant1/a/b":    "tenant1",
		"no-separator":   "",
		"/leading-slash": "",
	}
	for id, want := range cases {
		if got := cacheOwner(id); got != want {
			t.Errorf("cacheOwner(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestFreqSketch(t *testing.T) {
	var s freqSketch
	s.init(1 << 10)
	h := cacheHash("key")
	if got := s.estimate(h); got != 0 {
		t.Fatalf("fresh estimate = %d", got)
	}
	for i := 1; i <= 20; i++ {
		s.touch(h)
		est := s.estimate(h)
		want := uint8(i)
		if i > 15 {
			want = 15 // saturates
		}
		if est < want {
			t.Fatalf("after %d touches estimate = %d, want >= %d", i, est, want)
		}
	}
	s.age()
	if est := s.estimate(h); est < 7 || est > 15 {
		t.Fatalf("after halving estimate = %d, want ~7", est)
	}
}

// TestCacheGetZeroAllocs gates the hit fast path — hash, map probe,
// sketch touch, SLRU promotion — at zero heap allocations per lookup.
// (Vault.Get then pays exactly one allocation for the caller-owned
// copy; ReadTo pays none.)
func TestCacheGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rc := newReadCache(1<<20, 1.0)
	rc.insert("tenant/hot", 7, fill("x", 4096))
	rc.get("tenant/hot", 7) // promote to protected before measuring
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := rc.get("tenant/hot", 7); !ok {
			t.Fatal("lost the entry mid-measurement")
		}
	}); allocs != 0 {
		t.Fatalf("cache hit fast path allocates %.1f times per op, want 0", allocs)
	}
	// The miss path is cold-path adjacent but also stays clean.
	if allocs := testing.AllocsPerRun(1000, func() {
		rc.get("tenant/absent", 7)
	}); allocs != 0 {
		t.Fatalf("cache miss path allocates %.1f times per op, want 0", allocs)
	}
}

// FuzzFreqSketch drives the admission filter's count-min sketch with
// arbitrary key/op streams and checks its structural guarantees: counts
// only over-estimate (estimate >= the per-key lower bound maintained
// alongside, through saturation and halving), and estimates stay in
// [0, 15]. Run briefly in CI (see the verify recipe's fuzz smoke).
func FuzzFreqSketch(f *testing.F) {
	f.Add([]byte("abcd1234efgh5678"))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{7}, 64))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s freqSketch
		s.init(256) // small table → frequent aging under fuzzing
		lower := make(map[uint64]uint8)
		for i := 0; i+2 < len(ops); i += 3 {
			// Derive a small key universe so collisions and repeats occur.
			key := fmt.Sprintf("k%d", ops[i]%32)
			h := cacheHash(key)
			switch ops[i+1] % 4 {
			case 0, 1, 2: // touch dominates, as in real traffic
				agedBefore := s.additions
				s.touch(h)
				if s.additions < agedBefore {
					// Aging ran inside touch: every lower bound halves, then
					// this touch's increment may or may not survive — keep
					// the conservative floor.
					for k, c := range lower {
						lower[k] = c / 2
					}
				}
				if c := lower[h]; c < 15 {
					lower[h] = c + 1
				}
			case 3:
				s.age()
				for k, c := range lower {
					lower[k] = c / 2
				}
			}
			est := s.estimate(h)
			if est > 15 {
				t.Fatalf("estimate %d out of range", est)
			}
			if est < lower[h]/2 {
				// /2 slack: an aging pass inside touch may halve after the
				// increment while the model halved before it.
				t.Fatalf("estimate %d below lower bound %d for %s", est, lower[h], key)
			}
		}
	})
}

// --- vault-level cache behavior ---

func newCachedVault(t *testing.T, c *cluster.Cluster, cacheBytes int64, opts ...VaultOption) *Vault {
	t.Helper()
	enc := Erasure{K: 4, N: 8}
	opts = append([]VaultOption{WithReadCache(cacheBytes), WithRegistry(obs.NewRegistry())}, opts...)
	v, err := NewVault(c, enc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVaultCacheHitAndMutatorInvalidation(t *testing.T) {
	c := cluster.New(8, nil)
	v := newCachedVault(t, c, 1<<20)
	data := fill("obj", 2048)
	if err := v.Put(context.Background(), "t/obj", data); err != nil {
		t.Fatal(err)
	}

	got, err := v.Get(context.Background(), "t/obj") // miss → fill
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("first get: %v", err)
	}
	s := v.CacheStats()
	if s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after fill: %+v", s)
	}
	// The miss result is the caller's too: the entry the fill just
	// handed the cache must not be the slice Get returned.
	got[0] ^= 0xff

	got2, err := v.Get(context.Background(), "t/obj") // hit
	if err != nil || !bytes.Equal(got2, data) {
		t.Fatalf("cached get after mutating the miss result: %v", err)
	}
	if s := v.CacheStats(); s.Hits != 1 {
		t.Fatalf("expected a hit: %+v", s)
	}
	// The hit returns a caller-owned copy: mutating it must not corrupt
	// the cache.
	got2[0] ^= 0xff
	got3, _ := v.Get(context.Background(), "t/obj")
	if !bytes.Equal(got3, data) {
		t.Fatal("caller mutation leaked into the cache")
	}

	// AdvanceEpoch makes the entry unreachable (lazy invalidation)…
	c.AdvanceEpoch()
	hits := v.CacheStats().Hits
	got4, err := v.Get(context.Background(), "t/obj")
	if err != nil || !bytes.Equal(got4, data) {
		t.Fatalf("post-epoch get: %v", err)
	}
	if s := v.CacheStats(); s.Hits != hits {
		t.Fatal("stale-epoch entry served after AdvanceEpoch")
	}
	// …and the re-read re-cached at the new epoch.
	if _, err := v.Get(context.Background(), "t/obj"); err != nil {
		t.Fatal(err)
	}
	if s := v.CacheStats(); s.Hits != hits+1 {
		t.Fatalf("re-cache at new epoch failed: %+v", s)
	}

	// RenewShares invalidates; the next read still returns the plaintext.
	if err := v.RenewShares(context.Background(), "t/obj"); err != nil {
		t.Fatal(err)
	}
	if got, err := v.Get(context.Background(), "t/obj"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-renew get: %v", err)
	}

	// Delete invalidates: a re-put under the same id must serve the NEW
	// bytes, never the cached old ones.
	if err := v.DeleteContext(context.Background(), "t/obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(context.Background(), "t/obj"); err == nil {
		t.Fatal("deleted object served (stale cache)")
	}
	data2 := fill("obj-v2", 2048)
	if err := v.Put(context.Background(), "t/obj", data2); err != nil {
		t.Fatal(err)
	}
	if got, err := v.Get(context.Background(), "t/obj"); err != nil || !bytes.Equal(got, data2) {
		t.Fatalf("re-put served stale bytes: %v", err)
	}

	checkCacheSeries(t, v)
}

// checkCacheSeries requires the labelled vault.cache.* series to count
// exactly what CacheStats counts, under the vault's encoding label.
func checkCacheSeries(t *testing.T, v *Vault) {
	t.Helper()
	s := v.CacheStats()
	snap := v.obsReg.Snapshot()
	for family, want := range map[string]int64{
		"vault.cache.hit":          s.Hits,
		"vault.cache.miss":         s.Misses,
		"vault.cache.evict":        s.Evictions,
		"vault.cache.admit_reject": s.AdmitRejects,
	} {
		series := family + `{encoding="erasure_coding"}`
		if got, ok := snap.Counters[series]; !ok || got != want {
			t.Errorf("%s = %d (present %v), CacheStats says %d", series, got, ok, want)
		}
	}
}

// TestVaultCacheEvictionSeries overfills a small cache so that the
// eviction and admission-reject series move, and checks them against
// CacheStats too.
func TestVaultCacheEvictionSeries(t *testing.T) {
	// One owner per object, so no tenant share binds: every eviction and
	// refusal is the global budget's TinyLFU admission at work.
	v := newCachedVault(t, cluster.New(8, nil), 8<<10) // 8 entries of 1 KiB
	read := func(from, to, rounds int) {
		for r := 0; r < rounds; r++ {
			for i := from; i < to; i++ {
				if _, err := v.Get(context.Background(), fmt.Sprintf("o%02d/obj", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 16; i++ {
		if err := v.Put(context.Background(), fmt.Sprintf("o%02d/obj", i), fill(fmt.Sprint(i), 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	read(0, 16, 1) // the first half fills the cache; a one-off second half is refused
	read(8, 16, 1) // seen twice, the second half now wins admission and evicts

	if s := v.CacheStats(); s.Evictions == 0 || s.AdmitRejects == 0 {
		t.Fatalf("16 KiB of reads through an 8 KiB cache neither evicted nor refused: %+v", s)
	}
	checkCacheSeries(t, v)
}

// TestVaultCacheSkewedReadReplay reads a preloaded, fully cacheable set
// with zipfian (s=1.2) skew from a fixed seed, twice. Every Get is a hit
// or a miss, the skew produces hits, the labelled vault.cache.{hit,miss}
// series count what CacheStats counts, and the replay's tallies match.
func TestVaultCacheSkewedReadReplay(t *testing.T) {
	const objects, gets = 16, 200
	var first *CacheStats
	for run := 0; run < 2; run++ {
		v := newCachedVault(t, cluster.New(8, nil), 1<<20)
		for i := 0; i < objects; i++ {
			if err := v.Put(context.Background(), fmt.Sprintf("t/obj-%02d", i), fill(fmt.Sprint(i), 2<<10)); err != nil {
				t.Fatal(err)
			}
		}
		z := rand.NewZipf(rand.New(rand.NewSource(21)), 1.2, 1, objects-1)
		for i := 0; i < gets; i++ {
			k := z.Uint64()
			got, err := v.Get(context.Background(), fmt.Sprintf("t/obj-%02d", k))
			if err != nil || !bytes.Equal(got, fill(fmt.Sprint(k), 2<<10)) {
				t.Fatalf("run %d get %d (obj %d): %v", run, i, k, err)
			}
		}
		s := v.CacheStats()
		if s.Hits+s.Misses != gets {
			t.Fatalf("run %d: %d hits + %d misses != %d gets", run, s.Hits, s.Misses, gets)
		}
		if s.Hits == 0 {
			t.Fatalf("run %d: skewed reads over a fully-cacheable set produced no hits", run)
		}
		checkCacheSeries(t, v)
		if run == 0 {
			first = s
		} else if s.Hits != first.Hits || s.Misses != first.Misses {
			t.Fatalf("replay diverged: run0 %d/%d vs run1 %d/%d (hits/misses)", first.Hits, first.Misses, s.Hits, s.Misses)
		}
	}
}

func TestVaultCacheChunkedReadTo(t *testing.T) {
	c := cluster.New(8, nil)
	v := newCachedVault(t, c, 1<<20, WithChunkSize(512))
	data := fill("chunky", 2500) // 4 chunk stripes
	if err := v.Put(context.Background(), "t/chunky", data); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := v.ReadTo(context.Background(), "t/chunky", &first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), data) {
		t.Fatal("streamed read mismatch")
	}
	if s := v.CacheStats(); s.Entries != 1 {
		t.Fatalf("chunked ReadTo did not fill the cache: %+v", s)
	}
	var second bytes.Buffer
	if _, err := v.ReadTo(context.Background(), "t/chunky", &second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), data) {
		t.Fatal("cached streamed read mismatch")
	}
	if s := v.CacheStats(); s.Hits != 1 {
		t.Fatalf("second ReadTo missed: %+v", s)
	}
	// Get on the same chunked object is served from the same entry.
	got, err := v.Get(context.Background(), "t/chunky")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cached chunked get: %v", err)
	}
	if s := v.CacheStats(); s.Hits != 2 {
		t.Fatalf("chunked get missed: %+v", s)
	}
}

func TestVaultWithoutCacheUnchanged(t *testing.T) {
	c := cluster.New(8, nil)
	enc := Erasure{K: 4, N: 8}
	v, err := NewVault(c, enc, WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheStats() != nil {
		t.Fatal("cache present without WithReadCache")
	}
	data := fill("x", 512)
	if err := v.Put(context.Background(), "x", data); err != nil {
		t.Fatal(err)
	}
	if got, err := v.Get(context.Background(), "x"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("uncached get: %v", err)
	}
}

// TestPrefetchCancel pins the prefetch window's cancellation contract: a
// context cancelled mid-read aborts cleanly (context error surfaced, no
// goroutine leak — the -race run would catch one touching freed state)
// and the full read still works afterwards.
func TestPrefetchCancel(t *testing.T) {
	c := cluster.New(8, nil)
	reg := obs.NewRegistry()
	enc := Erasure{K: 4, N: 8}
	v, err := NewVault(c, enc, WithRegistry(reg), WithChunkSize(256))
	if err != nil {
		t.Fatal(err)
	}
	data := fill("scan", 4000) // ~15 chunk stripes
	if err := v.Put(context.Background(), "scan", data); err != nil {
		t.Fatal(err)
	}
	// A writer that cancels the read after the first chunk lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel, after: 1}
	_, err = v.ReadTo(ctx, "scan", w)
	if err == nil {
		t.Fatal("cancelled read succeeded")
	}
	// The full read still works afterwards — nothing was left torn.
	got, err := v.Get(context.Background(), "scan")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after cancelled prefetch: %v", err)
	}
}

// cancelAfterWriter cancels its context after `after` writes.
type cancelAfterWriter struct {
	cancel func()
	after  int
	n      int
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n >= w.after {
		w.cancel()
	}
	return len(p), nil
}
