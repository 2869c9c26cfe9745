// Package bsm simulates key agreement in Maurer's Bounded Storage Model
// (BSM), the alternative to QKD that §4 of the paper says is "overdue for
// a practical evaluation" (experiment E9).
//
// The model: a public source broadcasts a stream of R random bytes. The
// honest parties share a small prior secret — the positions they will
// sample — and each stores only those k bytes. The adversary may store ANY
// α·R bytes of the stream (α < 1) but not all of it; once the stream has
// passed, unstored bytes are gone forever, no matter the adversary's
// computing power. The honest parties' sampled positions that the
// adversary missed carry true secrecy; privacy amplification with a
// universal hash compresses the sample into a final key that is close to
// uniform from the adversary's view.
//
// The simulator plays all three roles deterministically (seeded) and
// reports exactly what the adversary learned, so the α-sweep in the bench
// harness can chart key rate against adversary storage — the trade-off
// the paper asks about.
package bsm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
)

// Errors returned by this package.
var (
	ErrBadParams = errors.New("bsm: invalid parameters")
	ErrKeyTooBig = errors.New("bsm: requested key exceeds sampled entropy")
)

// Params configures one BSM key-agreement run.
type Params struct {
	// StreamBytes is R: the broadcast stream length.
	StreamBytes int
	// SampleBytes is k: how many positions the honest parties store.
	SampleBytes int
	// AdversaryFraction is α: the fraction of the stream the adversary
	// can store, in [0, 1).
	AdversaryFraction float64
	// KeyBytes is the final key length after privacy amplification.
	KeyBytes int
	// EveStrategy selects how the adversary chooses which bytes to store.
	EveStrategy EveStrategy
}

// EveStrategy is the adversary's storage policy.
type EveStrategy int

// Adversary storage strategies.
const (
	// EvePrefix stores the first α·R bytes (models a capture window).
	EvePrefix EveStrategy = iota
	// EveRandom stores a uniform α·R-subset (models sampling taps).
	EveRandom
)

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.StreamBytes <= 0 || p.SampleBytes <= 0 || p.KeyBytes <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadParams, p)
	}
	if p.SampleBytes > p.StreamBytes {
		return fmt.Errorf("%w: sample exceeds stream", ErrBadParams)
	}
	if p.AdversaryFraction < 0 || p.AdversaryFraction >= 1 {
		return fmt.Errorf("%w: alpha=%v", ErrBadParams, p.AdversaryFraction)
	}
	return nil
}

// Result reports one key-agreement run.
type Result struct {
	// Key is the agreed key (identical for both honest parties).
	Key []byte
	// EveStoredBytes is how much of the stream the adversary kept.
	EveStoredBytes int
	// EveKnownSamples is how many of the honest sample positions the
	// adversary happened to store — the leaked entropy, in bytes.
	EveKnownSamples int
	// FreshEntropyBytes = SampleBytes − EveKnownSamples: the min-entropy
	// (in bytes) backing the final key.
	FreshEntropyBytes int
	// Secure reports whether privacy amplification had enough fresh
	// entropy for the requested key (with the leftover-hash margin).
	Secure bool
}

// amplificationMarginBytes is the leftover-hash-lemma safety margin: the
// final key must be at least this much shorter than the fresh entropy.
const amplificationMarginBytes = 8 // 64 bits → ε ≤ 2^-32

// Exchange runs one key agreement. Both honest parties compute the same
// key; the result records the adversary's knowledge.
// Each call owns a locally seeded *rand.Rand — never the shared
// math/rand global source — so concurrent exchanges cannot perturb each
// other's draw sequences and a given seed always replays the same run.
func Exchange(p Params, seed int64) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	// The honest parties' shared prior secret: sample positions and the
	// extractor seed. In a deployment this is the small long-term secret;
	// here it comes from the same seeded RNG for determinism.
	positions := rng.Perm(p.StreamBytes)[:p.SampleBytes]
	extractorSeed := make([]byte, 32)
	rng.Read(extractorSeed)

	// Adversary's storage set, chosen WITHOUT knowledge of positions.
	eveBytes := int(p.AdversaryFraction * float64(p.StreamBytes))
	eveStores := make(map[int]bool, eveBytes)
	switch p.EveStrategy {
	case EvePrefix:
		for i := 0; i < eveBytes; i++ {
			eveStores[i] = true
		}
	case EveRandom:
		for _, i := range rng.Perm(p.StreamBytes)[:eveBytes] {
			eveStores[i] = true
		}
	default:
		return nil, fmt.Errorf("%w: strategy %d", ErrBadParams, p.EveStrategy)
	}

	// Broadcast: stream bytes are generated on the fly; Alice/Bob keep
	// only their positions, Eve keeps only her set. Nobody stores R.
	wanted := make(map[int]int, p.SampleBytes) // position → sample index
	for i, pos := range positions {
		wanted[pos] = i
	}
	sample := make([]byte, p.SampleBytes)
	eveKnown := 0
	buf := make([]byte, 1)
	for pos := 0; pos < p.StreamBytes; pos++ {
		rng.Read(buf)
		if i, ok := wanted[pos]; ok {
			sample[i] = buf[0]
			if eveStores[pos] {
				eveKnown++
			}
		}
	}

	fresh := p.SampleBytes - eveKnown
	secure := fresh >= p.KeyBytes+amplificationMarginBytes

	// Privacy amplification: SHA-256 in counter mode over (seed ‖ sample),
	// a standard extractor instantiation.
	key := make([]byte, p.KeyBytes)
	var ctr [8]byte
	for off := 0; off < p.KeyBytes; off += sha256.Size {
		binary.BigEndian.PutUint64(ctr[:], uint64(off/sha256.Size))
		h := sha256.New()
		h.Write(extractorSeed)
		h.Write(ctr[:])
		h.Write(sample)
		copy(key[off:], h.Sum(nil))
	}

	return &Result{
		Key:               key,
		EveStoredBytes:    eveBytes,
		EveKnownSamples:   eveKnown,
		FreshEntropyBytes: fresh,
		Secure:            secure,
	}, nil
}
