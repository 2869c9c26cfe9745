package systems

import (
	"crypto/sha256"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
)

// VSRArchive models Wong, Wang & Wing's verifiable secret redistribution
// archive: Shamir sharing at rest plus a renewal protocol that
// re-randomises every share, with commitments that let holders verify
// what they receive. Against the mobile adversary the renewal is the
// entire defence: shares harvested in different epochs lie on different
// polynomials and cannot be combined — which Breach demonstrates by
// insisting on same-epoch shards. The cost, per §3.2, is all-to-all
// renewal traffic, metered in RenewTraffic.
type VSRArchive struct {
	Cluster *cluster.Cluster
	N, T    int
	// RenewTraffic accumulates bytes a real deployment would move during
	// renewals (zero-share dealings + commitment broadcasts).
	RenewTraffic int64
	// commitments[object][i] is the hash commitment to node i's current
	// share, refreshed at each renewal — the "verifiable" part.
	commitments map[string][][sha256.Size]byte
}

// NewVSRArchive builds the system with a (t, n) sharing.
func NewVSRArchive(c *cluster.Cluster, n, t int) (*VSRArchive, error) {
	if err := checkSharing(c, n, t); err != nil {
		return nil, err
	}
	return &VSRArchive{Cluster: c, N: n, T: t, commitments: make(map[string][][sha256.Size]byte)}, nil
}

// Name implements Archive.
func (s *VSRArchive) Name() string { return "VSR Archive" }

// Store implements Archive.
func (s *VSRArchive) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	shares, err := shamir.Split(data, s.N, s.T, rnd)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, s.N)
	comms := make([][sha256.Size]byte, s.N)
	for i, sh := range shares {
		shards[i] = sh.Payload
		comms[i] = sha256.Sum256(sh.Payload)
	}
	if err := putShards(s.Cluster, object, shards); err != nil {
		return nil, err
	}
	s.commitments[object] = comms
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive, verifying each fetched share against its
// commitment before combining — a corrupt provider is identified during
// the degraded read itself, and the fetch moves on to another provider
// rather than failing the stripe.
func (s *VSRArchive) Retrieve(ref *Ref) ([]byte, error) {
	comms, ok := s.commitments[ref.Object]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shards, err := getShardsDegraded(s.Cluster, ref.Object, s.N, s.T, committed(comms))
	if err != nil {
		return nil, err
	}
	out, err := shamir.Combine(sharesOf(shards, s.T, s.T))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	return out, nil
}

// committed vets fetched share i against its published commitment.
func committed(comms [][sha256.Size]byte) func(i int, data []byte) bool {
	return func(i int, data []byte) bool { return sha256.Sum256(data) == comms[i] }
}

// Renew implements Archive: a Herzberg zero-sharing refresh executed
// against the stored shards — no reconstruction, no plaintext exposure.
// Every node's share is read and verified, re-randomised and written
// back as one stripe, and only then are the commitments republished; the
// cluster epoch-stamps the rewritten shards, which is what defeats
// cross-epoch harvest mixing.
func (s *VSRArchive) Renew(ref *Ref, rnd io.Reader) error {
	comms, ok := s.commitments[ref.Object]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shards, err := refreshShares(s.Cluster, ref.Object, s.N, s.T, ref.PlainLen, rnd, committed(comms))
	if err != nil {
		return err
	}
	if err := putShards(s.Cluster, ref.Object, shards); err != nil {
		return err
	}
	for i, sh := range shards {
		comms[i] = sha256.Sum256(sh)
		s.RenewTraffic += int64(len(sh)) + sha256.Size
	}
	// All-to-all dealing traffic of a real (non-simulated) execution.
	s.RenewTraffic += int64(s.N*(s.N-1)) * int64(ref.PlainLen)
	return nil
}

// Repair rebuilds a lost or corrupted provider's share from t verified
// providers and re-publishes its commitment. (The deployed protocol
// blinds the helpers' contributions with a random polynomial that
// vanishes at the lost point; at the system layer the observable effect
// is identical: the provider ends up with a share consistent with the
// current polynomial.) The rebuilt share is written like any stripe,
// staged and committed, before its commitment changes.
func (s *VSRArchive) Repair(ref *Ref, lost int, rnd io.Reader) error {
	comms, ok := s.commitments[ref.Object]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	if lost < 0 || lost >= s.N {
		return fmt.Errorf("systems: no provider %d", lost)
	}
	shards, err := getShardsDegraded(s.Cluster, ref.Object, s.N, s.T, committed(comms))
	if err != nil {
		return err
	}
	payload, err := shamir.CombineAt(sharesOf(shards, s.T, s.T), byte(lost+1))
	if err != nil {
		return fmt.Errorf("systems: repair interpolation: %w", err)
	}
	stripe := make([][]byte, lost+1)
	stripe[lost] = payload
	if err := putShards(s.Cluster, ref.Object, stripe); err != nil {
		return err
	}
	comms[lost] = sha256.Sum256(payload)
	s.RenewTraffic += int64(s.T*(ref.PlainLen+2) + ref.PlainLen)
	return nil
}

// Classify implements Archive.
func (s *VSRArchive) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational,
		RestClass:    sec.IT,
	}
}

// Breach implements Archive: only same-write-epoch shares combine.
func (s *VSRArchive) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	shares := harvestedShamir(adv, ref.Object, s.T)
	if len(shares) < s.T {
		return BreachResult{Reason: fmt.Sprintf("best same-epoch haul is %d/%d shares", len(shares), s.T)}
	}
	pt, err := shamir.Combine(shares[:s.T])
	if err != nil {
		return BreachResult{Violated: true, Reason: "threshold met but shares inconsistent"}
	}
	return BreachResult{Violated: true, Full: true, Recovered: pt,
		Reason: "adversary out-raced the renewal period"}
}
