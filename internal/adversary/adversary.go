// Package adversary implements the paper's threat model as an executable
// simulator: the Ostrovsky–Yung mobile adversary (§2) plus the
// Harvest-Now-Decrypt-Later collector and the break-event clock (§3.1).
//
// A Mobile adversary corrupts at most Budget nodes per epoch. Corruption
// is modelled as exfiltration: the adversary snapshots everything the node
// stores and remembers WHICH EPOCH each shard came from — the detail that
// decides whether proactive renewal saves the day. Between epochs the
// corruption set moves (hence "mobile"); over enough epochs every node is
// visited, so any defence that relies on some node never being touched
// eventually fails, exactly as the paper argues.
//
// Breaks is the cryptanalytic clock: each computational primitive is
// assigned the epoch at which it falls. A break is modelled as key/
// preimage recovery — from its break epoch onward, the adversary can
// strip that primitive from anything in its harvest, including material
// harvested long before. That retroactivity IS Harvest Now, Decrypt
// Later; experiment E4 runs it against every system in Table 1.
package adversary

import (
	"math/rand"
	"sort"
	"sync"

	"securearchive/internal/cascade"
	"securearchive/internal/cluster"
	"securearchive/internal/sig"
)

// Breaks schedules the fall of each computational primitive, in epochs.
// Primitives absent from the maps never break. The zero value breaks
// nothing.
type Breaks struct {
	// Ciphers maps cascade cipher schemes to their break epoch.
	Ciphers map[cascade.Scheme]int
	// Signatures maps signature schemes to their break epoch.
	Signatures sig.BreakSchedule
	// HashBroken is the epoch SHA-256 preimage resistance falls
	// (0 = never). A hash break voids AONT-RS's "knows the key" defence
	// and hash-commitment hiding.
	HashBroken int
}

// CipherBrokenAt reports whether scheme s is broken at epoch e.
func (b Breaks) CipherBrokenAt(s cascade.Scheme, e int) bool {
	be, ok := b.Ciphers[s]
	return ok && e >= be
}

// HashBrokenAt reports whether the hash family is broken at epoch e.
func (b Breaks) HashBrokenAt(e int) bool {
	return b.HashBroken > 0 && e >= b.HashBroken
}

// HarvestedShard is a shard in the adversary's vault, tagged with the
// epoch it was exfiltrated and the epoch the shard version was written.
type HarvestedShard struct {
	Shard        cluster.Shard
	HarvestEpoch int
}

// Mobile is the mobile adversary. It is safe for concurrent use: the
// rng is a locally seeded *rand.Rand (never the shared math/rand global
// source, which would let unrelated goroutines perturb the draw sequence
// and break the run-to-run determinism that seeded campaigns rely on),
// and mu guards it together with the harvest state. Determinism holds
// for a fixed sequence of calls; concurrent callers interleave at the
// granularity of whole operations.
type Mobile struct {
	Budget int // max corruptions per epoch

	mu  sync.Mutex
	rng *rand.Rand

	// vault holds everything ever harvested, keyed by object.
	vault map[string][]HarvestedShard
	// lastEpoch guards the per-epoch budget.
	lastEpoch  int
	usedBudget int
}

// NewMobile creates a mobile adversary with the given per-epoch corruption
// budget and deterministic randomness seed.
func NewMobile(budget int, seed int64) *Mobile {
	return &Mobile{
		Budget: budget,
		rng:    rand.New(rand.NewSource(seed)),
		vault:  make(map[string][]HarvestedShard),
	}
}

// Corrupt exfiltrates the full contents of the given node at the cluster's
// current epoch. It enforces the per-epoch budget: corruptions beyond
// Budget in one epoch are refused (return false).
func (m *Mobile) Corrupt(c *cluster.Cluster, nodeID int) bool {
	epoch := c.Epoch()
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch != m.lastEpoch {
		m.lastEpoch = epoch
		m.usedBudget = 0
	}
	if m.usedBudget >= m.Budget {
		return false
	}
	shards, err := c.Snapshot(nodeID)
	if err != nil {
		return false
	}
	m.usedBudget++
	for _, sh := range shards {
		m.vault[sh.Key.Object] = append(m.vault[sh.Key.Object], HarvestedShard{Shard: sh, HarvestEpoch: epoch})
	}
	return true
}

// CorruptRandom corrupts up to Budget distinct random nodes this epoch and
// returns how many succeeded.
func (m *Mobile) CorruptRandom(c *cluster.Cluster) int {
	m.mu.Lock()
	perm := m.rng.Perm(c.Size())
	m.mu.Unlock()
	count := 0
	for _, id := range perm {
		if m.usedBudgetFor(c) >= m.Budget {
			break
		}
		if m.Corrupt(c, id) {
			count++
		}
	}
	return count
}

func (m *Mobile) usedBudgetFor(c *cluster.Cluster) int {
	epoch := c.Epoch()
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch != m.lastEpoch {
		return 0
	}
	return m.usedBudget
}

// Harvest returns every harvested shard of the object, oldest first.
func (m *Mobile) Harvest(object string) []HarvestedShard {
	m.mu.Lock()
	out := append([]HarvestedShard(nil), m.vault[object]...)
	m.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].HarvestEpoch != out[j].HarvestEpoch {
			return out[i].HarvestEpoch < out[j].HarvestEpoch
		}
		return out[i].Shard.Key.Index < out[j].Shard.Key.Index
	})
	return out
}

// DistinctShards returns, for the object, the maximum set of distinct
// shard indices whose harvested versions were all WRITTEN in the same
// epoch — the only combination useful against a properly renewing
// secret-shared store. The map is write-epoch → distinct indices held.
func (m *Mobile) DistinctShards(object string) map[int]map[int][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]map[int][]byte)
	for _, h := range m.vault[object] {
		we := h.Shard.Epoch
		if out[we] == nil {
			out[we] = make(map[int][]byte)
		}
		if _, dup := out[we][h.Shard.Key.Index]; !dup {
			out[we][h.Shard.Key.Index] = h.Shard.Data
		}
	}
	return out
}

// MaxAnyEpochShards returns the number of distinct shard indices held
// across ALL epochs — what the adversary can combine when the victim
// never renews.
func (m *Mobile) MaxAnyEpochShards(object string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[int]bool)
	for _, h := range m.vault[object] {
		seen[h.Shard.Key.Index] = true
	}
	return len(seen)
}
