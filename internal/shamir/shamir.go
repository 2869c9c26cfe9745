// Package shamir implements Shamir's (t, n) threshold secret sharing over
// GF(2^8) (Shamir, CACM 1979).
//
// A secret of L bytes is split into n shares of L bytes each such that any
// t shares reconstruct the secret exactly, while any t-1 shares are
// statistically independent of the secret: perfect, information-theoretic
// secrecy (ε = 0 in Definition 2.1 of the paper). The construction is
// byte-parallel: for each byte position, a fresh uniformly random
// polynomial f of degree t-1 with f(0) = secret byte is sampled, and share
// i holds f(x_i) for its evaluation point x_i ∈ {1..255}.
//
// Per McEliece & Sarwate (1981), this is exactly a non-systematic [n, t]
// Reed-Solomon code applied to (secret, r_1, ..., r_{t-1}); the erasure
// tolerance of the code is what gives shares their availability property.
// The storage cost — every share as large as the secret — is the provably
// unavoidable price of perfect secrecy that Figure 1 of the paper charts.
//
// Randomness is taken from an injected io.Reader so tests are
// deterministic; production callers pass crypto/rand.Reader.
//
// The byte-parallel structure makes the hot paths embarrassingly
// parallel: every byte position is an independent polynomial. Split and
// Combine evaluate on the table-driven gf256 kernels and split their work
// across goroutines by (share, byte-range) — see WithParallelism. All
// randomness is drawn before any worker starts, so results are
// deterministic for a given reader regardless of parallelism.
package shamir

import (
	"errors"
	"fmt"
	"io"

	"securearchive/internal/bufpool"
	"securearchive/internal/gf256"
	"securearchive/internal/parallel"
)

// chunkGrain is the minimum byte range a worker takes; payloads below it
// are processed inline.
const chunkGrain = 64 << 10

// Option configures the Split/Combine hot paths.
type Option func(*config)

type config struct {
	par int
}

// WithParallelism bounds the number of goroutines Split, SplitAt and
// Combine may use. n <= 0 (the default) selects GOMAXPROCS; 1 forces the
// serial path.
func WithParallelism(n int) Option {
	return func(c *config) { c.par = n }
}

func resolve(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Errors returned by this package.
var (
	ErrInvalidParams    = errors.New("shamir: invalid parameters")
	ErrEmptySecret      = errors.New("shamir: empty secret")
	ErrTooFewShares     = errors.New("shamir: not enough shares to reconstruct")
	ErrDuplicateShare   = errors.New("shamir: duplicate share index")
	ErrInconsistent     = errors.New("shamir: shares are inconsistent")
	ErrPayloadSize      = errors.New("shamir: share payloads have different sizes")
	ErrInvalidShareX    = errors.New("shamir: share evaluation point must be non-zero")
	ErrInvalidThreshold = errors.New("shamir: shares disagree on threshold")
)

// MaxShares is the maximum n: the non-zero points of GF(256).
const MaxShares = 255

// Share is one participant's piece of a split secret.
type Share struct {
	// X is the GF(256) evaluation point, in 1..255. Zero is reserved for
	// the secret itself and is never a valid share point.
	X byte
	// Threshold is t, the number of shares needed for reconstruction.
	// It is carried in every share so that reconstruction is self-
	// describing; it is not secret.
	Threshold byte
	// Payload holds the share bytes, the same length as the secret.
	Payload []byte
}

// Clone returns a deep copy of the share.
func (s Share) Clone() Share {
	p := make([]byte, len(s.Payload))
	copy(p, s.Payload)
	return Share{X: s.X, Threshold: s.Threshold, Payload: p}
}

// Split shares secret into n shares with reconstruction threshold t,
// 1 <= t <= n <= MaxShares, reading randomness from rnd. Share i is
// assigned evaluation point i+1.
func Split(secret []byte, n, t int, rnd io.Reader, opts ...Option) ([]Share, error) {
	xs := make([]byte, n)
	for i := range xs {
		xs[i] = byte(i + 1)
	}
	return SplitAt(secret, xs, t, rnd, opts...)
}

// SplitAt is Split with caller-chosen distinct non-zero evaluation points,
// one per share. It is used by the proactive and packed layers, which need
// control over point assignment.
func SplitAt(secret []byte, xs []byte, t int, rnd io.Reader, opts ...Option) ([]Share, error) {
	cfg := resolve(opts)
	n := len(xs)
	if t < 1 || t > n || n > MaxShares {
		return nil, fmt.Errorf("%w: t=%d n=%d", ErrInvalidParams, t, n)
	}
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	var seen [256]bool
	for _, x := range xs {
		if x == 0 {
			return nil, ErrInvalidShareX
		}
		if seen[x] {
			return nil, fmt.Errorf("%w: x=%d", ErrDuplicateShare, x)
		}
		seen[x] = true
	}

	// Coefficient blocks: block 0 is the secret, blocks 1..t-1 are random.
	// All randomness is drawn here, before any worker starts, so the output
	// does not depend on goroutine scheduling. The random blocks are pure
	// scratch — dead once the Horner pass finishes — so they live in one
	// pooled buffer; a single ReadFull draws the same bytes in the same
	// order as the seed's per-block reads, keeping seeded tests stable.
	L := len(secret)
	coeffs := make([][]byte, t)
	coeffs[0] = secret
	if t > 1 {
		cb := bufpool.Get((t - 1) * L)
		defer cb.Release()
		if _, err := io.ReadFull(rnd, cb.B); err != nil {
			return nil, fmt.Errorf("shamir: reading randomness: %w", err)
		}
		for j := 1; j < t; j++ {
			coeffs[j] = cb.B[(j-1)*L : j*L : j*L]
		}
	}

	shares := make([]Share, n)
	tabs := make([]*[256]byte, n)
	for i, x := range xs {
		shares[i] = Share{X: x, Threshold: byte(t), Payload: make([]byte, L)}
		tabs[i] = gf256.MulTable(x)
	}

	// Every byte position is an independent polynomial, so the Horner
	// evaluation splits freely across both shares and byte ranges. The job
	// space is (share × chunk), row-major so one worker streams through a
	// contiguous byte range of one share.
	nchunks := min((L+chunkGrain-1)/chunkGrain, parallel.Workers(cfg.par))
	if nchunks < 1 {
		nchunks = 1
	}
	parallel.For(cfg.par, n*nchunks, 1, func(jlo, jhi int) {
		for job := jlo; job < jhi; job++ {
			i, ck := job/nchunks, job%nchunks
			lo, hi := parallel.Span(L, nchunks, ck)
			payload := shares[i].Payload[lo:hi]
			// Horner over blocks: payload = ((c_{t-1}·x + c_{t-2})·x + ...)·x + c_0
			copy(payload, coeffs[t-1][lo:hi])
			for j := t - 2; j >= 0; j-- {
				gf256.MulSliceAssignWith(tabs[i], payload, payload)
				gf256.AddSlice(coeffs[j][lo:hi], payload)
			}
		}
	})
	return shares, nil
}

// Combine reconstructs the secret from at least t shares. Extra shares
// beyond the threshold are used as a consistency check: if they do not lie
// on the same degree-(t-1) polynomial, ErrInconsistent is returned. This
// detects (but does not identify) corrupted shares; for identification use
// the vss package.
func Combine(shares []Share, opts ...Option) ([]byte, error) {
	if err := validate(shares); err != nil {
		return nil, err
	}
	cfg := resolve(opts)
	t := int(shares[0].Threshold)
	secret := combineAt(shares[:t], 0, cfg)
	// Consistency check with surplus shares: each extra share must match
	// the polynomial interpolated from the first t.
	for _, extra := range shares[t:] {
		pred := combineAt(shares[:t], extra.X, cfg)
		for i := range pred {
			if pred[i] != extra.Payload[i] {
				return nil, fmt.Errorf("%w: share x=%d off-polynomial at byte %d", ErrInconsistent, extra.X, i)
			}
		}
	}
	return secret, nil
}

func combineAt(shares []Share, x byte, cfg config) []byte {
	xs := make([]byte, len(shares))
	for i, s := range shares {
		xs[i] = s.X
	}
	lc := gf256.LagrangeCoeffs(xs, x)
	L := len(shares[0].Payload)
	out := make([]byte, L)
	// Interpolation is a dot product per byte position; chunk the byte
	// range so each worker owns a disjoint slice of out.
	parallel.For(cfg.par, L, chunkGrain, func(lo, hi int) {
		for i, s := range shares {
			gf256.MulSliceTable(lc[i], s.Payload[lo:hi], out[lo:hi])
		}
	})
	return out
}

func validate(shares []Share) error {
	if len(shares) == 0 {
		return ErrTooFewShares
	}
	t := shares[0].Threshold
	if t == 0 {
		return fmt.Errorf("%w: threshold 0", ErrInvalidParams)
	}
	if len(shares) < int(t) {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), t)
	}
	L := len(shares[0].Payload)
	var seen [256]bool
	for _, s := range shares {
		if s.Threshold != t {
			return ErrInvalidThreshold
		}
		if s.X == 0 {
			return ErrInvalidShareX
		}
		if seen[s.X] {
			return fmt.Errorf("%w: x=%d", ErrDuplicateShare, s.X)
		}
		seen[s.X] = true
		if len(s.Payload) != L {
			return ErrPayloadSize
		}
	}
	if L == 0 {
		return ErrEmptySecret
	}
	return nil
}
