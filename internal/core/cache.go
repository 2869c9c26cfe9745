package core

import (
	"strings"
	"sync"

	"securearchive/internal/obs"
)

// Hot-object read cache: a byte-bounded cache of decoded plaintexts in
// front of the vault's degraded k-of-n read path, so the hot subset of a
// write-once archive is served without re-probing k+2 nodes, re-fetching
// a stripe, and re-decoding on every Get (ROADMAP item 4).
//
// Coherence is the whole game here, and it rests on three rules:
//
//  1. Epoch keying. Every entry records the cluster epoch observed
//     before its stripe fetch began, and a lookup hits only when the
//     entry's epoch equals the current epoch — AdvanceEpoch therefore
//     makes every existing entry unreachable without touching the cache
//     at all (lazy, lock-free invalidation; stale entries age out of the
//     LRU like any other cold data).
//  2. Explicit invalidation under the object write lock. Every mutator
//     (PutReader, RenewShares, Delete, Scrub) calls invalidate(id) while
//     holding the object's write lock. Reads insert while holding the read lock with
//     the epoch captured before the fetch, so an insert is serialised
//     strictly before any later mutation's invalidate — the classic
//     read-old / write-new / insert-stale interleaving cannot happen.
//  3. Immutable entries. A cached slice is never written again after
//     insert; the entry is a slice its reader gave up, and every read
//     writes it out through io.Writer (Get's buffer copies), so neither
//     caller mutations nor eviction can corrupt a concurrent reader.
//
// Within the byte budget the cache is a segmented LRU (probationary +
// protected) with a TinyLFU-style frequency sketch as admission filter:
// a new entry may evict the probation tail only when its access
// frequency exceeds the victim's, so a one-pass cold scan — every key
// seen once — cannot flush a hot set that has been touched repeatedly.
//
// Multi-tenant fairness rides on the id namespace the API layer already
// uses (object ids are "<tenant>/<object>"): bytes are accounted per id
// prefix, and an owner pushed past its configured share of the cache
// evicts its own coldest entries, never another tenant's.

// DefaultCacheTenantShare is the fraction of the cache one owner (id
// prefix before the first '/') may occupy before its inserts start
// evicting its own entries instead of others'. 1.0 disables the split.
const DefaultCacheTenantShare = 1.0

// cacheOwner derives the accounting owner from an object id: the prefix
// before the first '/', matching the api layer's "<tenant>/<object>"
// keying. Ids without a separator share the anonymous "" owner.
func cacheOwner(id string) string {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i]
	}
	return ""
}

// cacheEntry is one cached decoded object. Entries are immutable after
// insert (data is a slice the reader gave up, never written again); list linkage and
// segment membership are guarded by readCache.mu.
type cacheEntry struct {
	id    string
	owner string
	epoch int
	data  []byte
	// protected marks the SLRU segment: false = probationary (seen once
	// since insert), true = protected (re-referenced while cached).
	protected  bool
	prev, next *cacheEntry
}

// lruList is an intrusive doubly-linked list (most-recent at front). The
// hit path must not allocate, which rules out container/list — its
// PushFront allocates an Element per move across lists.
type lruList struct {
	front, back *cacheEntry
}

func (l *lruList) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
}

func (l *lruList) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveToFront(e *cacheEntry) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// readCache is the vault's decoded-object cache. All state is guarded by
// mu; the critical sections are map/list/sketch bookkeeping only — never
// I/O, decode, or copying of entry data.
type readCache struct {
	mu sync.Mutex

	maxBytes int64
	// maxEntry caps a single entry so one large object cannot monopolise
	// the budget (maxBytes/8, min 1); larger objects bypass the cache.
	maxEntry int64
	// protCap bounds the protected segment (80% of maxBytes); promotion
	// past it demotes the protected tail back to probation instead of
	// growing the hot segment without bound.
	protCap int64
	// shareBytes is the per-owner byte cap derived from the tenant-share
	// fraction; an insert that would push its owner past it evicts the
	// owner's own coldest entries first.
	shareBytes int64

	bytes     int64
	protBytes int64
	entries   map[string]*cacheEntry
	probation lruList
	protected lruList
	owners    map[string]int64
	sketch    freqSketch

	// Lifetime tallies; the vault records hits/misses at the probe site
	// (Vault.cacheGet), while evictions and admission rejects happen
	// inside insert, so the vault hands the cache its pre-resolved
	// counters instead. Both may be nil (unit tests build bare caches).
	hits, misses, evictions, rejects int64
	evictC, rejectC                  *obs.Counter
}

// newReadCache sizes a cache. maxBytes must be > 0; share is clamped to
// (0, 1].
func newReadCache(maxBytes int64, share float64) *readCache {
	if share <= 0 || share > 1 {
		share = DefaultCacheTenantShare
	}
	maxEntry := maxBytes / 8
	if maxEntry < 1 {
		maxEntry = 1
	}
	rc := &readCache{
		maxBytes:   maxBytes,
		maxEntry:   maxEntry,
		protCap:    maxBytes * 8 / 10,
		shareBytes: int64(float64(maxBytes) * share),
		entries:    make(map[string]*cacheEntry),
		owners:     make(map[string]int64),
	}
	if rc.shareBytes < 1 {
		rc.shareBytes = 1
	}
	rc.sketch.init(cacheSketchCounters)
	return rc
}

// get returns the cached plaintext for id if an entry exists at exactly
// the given epoch. The returned slice is the cache's immutable copy —
// callers must not write to it (ReadTo writes it straight out). Every
// lookup, hit or miss, feeds the frequency sketch: admission decisions
// are about access history, not residency. The fast path performs zero
// heap allocations.
func (rc *readCache) get(id string, epoch int) ([]byte, bool) {
	h := cacheHash(id)
	rc.mu.Lock()
	rc.sketch.touch(h)
	e := rc.entries[id]
	if e == nil || e.epoch != epoch {
		rc.misses++
		rc.mu.Unlock()
		return nil, false
	}
	// SLRU promotion: a probationary hit graduates to protected; a
	// protected hit refreshes recency. Demote protected tails while the
	// segment is over its cap so the hot set stays bounded.
	if e.protected {
		rc.protected.moveToFront(e)
	} else {
		rc.probation.remove(e)
		e.protected = true
		rc.protected.pushFront(e)
		rc.protBytes += int64(len(e.data))
		for rc.protBytes > rc.protCap {
			tail := rc.protected.back
			if tail == nil || tail == e {
				break
			}
			rc.protected.remove(tail)
			tail.protected = false
			rc.probation.pushFront(tail)
			rc.protBytes -= int64(len(tail.data))
		}
	}
	rc.hits++
	data := e.data
	rc.mu.Unlock()
	return data, true
}

// insert adds data under id at the given epoch, applying the owner
// share, the admission filter, and segmented-LRU eviction. An existing
// entry for id (any epoch) is replaced — the caller just read this
// plaintext at this epoch, which is strictly fresher information. The
// caller gives data up: the slice itself becomes the entry (no copy), so
// it must never be written again.
func (rc *readCache) insert(id string, epoch int, data []byte) {
	size := int64(len(data))
	if size == 0 || size > rc.maxEntry {
		return
	}
	h := cacheHash(id)
	owner := cacheOwner(id)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if e := rc.entries[id]; e != nil {
		rc.removeLocked(e)
	}
	// Tenant share: an owner at its cap evicts its own coldest entries to
	// make room. If it still does not fit (single entry above the share),
	// the insert is refused — other tenants' residency is untouchable.
	for rc.owners[owner]+size > rc.shareBytes {
		victim := rc.ownerTail(owner)
		if victim == nil {
			rc.rejectLocked()
			return
		}
		rc.evictLocked(victim)
	}
	// Global budget with TinyLFU admission: the candidate must be seen
	// more often than the probation tail it wants to displace, else one
	// cold scan would flush the working set one insert at a time.
	for rc.bytes+size > rc.maxBytes {
		victim := rc.probation.back
		if victim == nil {
			victim = rc.protected.back
		}
		if victim == nil {
			rc.rejectLocked()
			return
		}
		if rc.sketch.estimate(h) <= rc.sketch.estimate(cacheHash(victim.id)) {
			rc.rejectLocked()
			return
		}
		rc.evictLocked(victim)
	}
	e := &cacheEntry{id: id, owner: owner, epoch: epoch, data: data}
	rc.entries[id] = e
	rc.probation.pushFront(e)
	rc.bytes += size
	rc.owners[owner] += size
}

// evictLocked removes a victim to make room, tallying the eviction.
func (rc *readCache) evictLocked(victim *cacheEntry) {
	rc.removeLocked(victim)
	rc.evictions++
	if rc.evictC != nil {
		rc.evictC.Inc()
	}
}

// rejectLocked tallies a refused admission.
func (rc *readCache) rejectLocked() {
	rc.rejects++
	if rc.rejectC != nil {
		rc.rejectC.Inc()
	}
}

// invalidate removes id's entry (if any). Mutators call it under the
// object's write lock; see the coherence rules at the top of the file.
func (rc *readCache) invalidate(id string) {
	rc.mu.Lock()
	if e := rc.entries[id]; e != nil {
		rc.removeLocked(e)
	}
	rc.mu.Unlock()
}

// ownerTail finds the owner's coldest entry: probation tail first, then
// protected tail.
func (rc *readCache) ownerTail(owner string) *cacheEntry {
	for e := rc.probation.back; e != nil; e = e.prev {
		if e.owner == owner {
			return e
		}
	}
	for e := rc.protected.back; e != nil; e = e.prev {
		if e.owner == owner {
			return e
		}
	}
	return nil
}

// removeLocked unlinks an entry from its segment, the map, and the byte
// accounting. Callers hold rc.mu.
func (rc *readCache) removeLocked(e *cacheEntry) {
	if e.protected {
		rc.protected.remove(e)
		rc.protBytes -= int64(len(e.data))
	} else {
		rc.probation.remove(e)
	}
	delete(rc.entries, e.id)
	size := int64(len(e.data))
	rc.bytes -= size
	if rem := rc.owners[e.owner] - size; rem > 0 {
		rc.owners[e.owner] = rem
	} else {
		delete(rc.owners, e.owner)
	}
}

// CacheStats is a point-in-time view of the read cache, surfaced by
// Vault.CacheStats for the API layer's per-tenant accounting and the
// benchmark's hit ratio.
type CacheStats struct {
	// Bytes and MaxBytes are current residency vs the configured budget.
	Bytes, MaxBytes int64
	// Entries is the number of resident objects.
	Entries int
	// Hits, Misses, Evictions and AdmitRejects are lifetime tallies.
	Hits, Misses, Evictions, AdmitRejects int64
	// OwnerBytes breaks residency down by id prefix (tenant).
	OwnerBytes map[string]int64
}

// CacheStats reports the read cache's current state — residency,
// lifetime hit/miss/evict tallies, and the per-owner byte breakdown the
// API layer surfaces as tenant accounting. Nil when the vault was built
// without WithReadCache.
func (v *Vault) CacheStats() *CacheStats {
	if v.cache == nil {
		return nil
	}
	return v.cache.stats()
}

func (rc *readCache) stats() *CacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s := &CacheStats{
		Bytes:        rc.bytes,
		MaxBytes:     rc.maxBytes,
		Entries:      len(rc.entries),
		Hits:         rc.hits,
		Misses:       rc.misses,
		Evictions:    rc.evictions,
		AdmitRejects: rc.rejects,
		OwnerBytes:   make(map[string]int64, len(rc.owners)),
	}
	for o, b := range rc.owners {
		s.OwnerBytes[o] = b
	}
	return s
}

// ---------------------------------------------------------------------
// Frequency sketch (TinyLFU admission filter)

// cacheSketchCounters sizes the sketch: 4-bit counters packed 16 per
// uint64. 32Ki counters ≈ 16 KiB — room for working sets far beyond the
// entry counts a byte-bounded cache can hold.
const cacheSketchCounters = 1 << 15

// sketchSampleFactor triggers aging: after counters*factor touches every
// counter is halved, so frequency estimates track the recent past
// instead of accumulating forever (a retired hot set must not outvote
// the current one indefinitely).
const sketchSampleFactor = 8

// freqSketch is a count-min sketch over 4-bit saturating counters: 4
// hash positions per key, estimate = min of the 4. All methods are
// called with the owning cache's mutex held and never allocate.
type freqSketch struct {
	words []uint64
	mask  uint64
	// additions counts touches since the last aging pass.
	additions int
	sample    int
}

func (s *freqSketch) init(counters int) {
	if counters < 16 {
		counters = 16
	}
	// Round up to a power of two so position selection is a mask.
	n := 16
	for n < counters {
		n <<= 1
	}
	s.words = make([]uint64, n/16)
	s.mask = uint64(n - 1)
	s.sample = n * sketchSampleFactor
}

// cacheHash hashes an id to a 64-bit value (FNV-1a, inlined so the hot
// path stays allocation-free) and scrambles it with a splitmix64 finaliser
// — FNV alone leaves short keys' low bits too regular for index derivation.
func cacheHash(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// pos derives the i-th counter index (Kirsch–Mitzenmacher double
// hashing: h1 + i·h2 over the table mask).
func (s *freqSketch) pos(h uint64, i int) uint64 {
	h2 := h>>32 | 1 // odd so the four probes stay distinct
	return (h + uint64(i)*h2) & s.mask
}

// touch increments the key's 4 counters (saturating at 15) and runs the
// aging pass when the sample budget is spent.
func (s *freqSketch) touch(h uint64) {
	for i := 0; i < 4; i++ {
		p := s.pos(h, i)
		shift := (p & 15) * 4
		w := &s.words[p>>4]
		if c := (*w >> shift) & 15; c < 15 {
			*w += 1 << shift
		}
	}
	s.additions++
	if s.additions >= s.sample {
		s.age()
	}
}

// estimate returns the key's frequency estimate (min over its counters).
func (s *freqSketch) estimate(h uint64) uint8 {
	min := uint8(15)
	for i := 0; i < 4; i++ {
		p := s.pos(h, i)
		c := uint8((s.words[p>>4] >> ((p & 15) * 4)) & 15)
		if c < min {
			min = c
		}
	}
	return min
}

// age halves every counter in place (each 4-bit lane shifts right one
// with the bit that would leak in from the neighbour masked off).
func (s *freqSketch) age() {
	for i := range s.words {
		s.words[i] = (s.words[i] >> 1) & 0x7777777777777777
	}
	s.additions = 0
}
