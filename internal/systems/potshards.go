package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
)

// POTSHARDS (Storer et al., ToS '09) was the first full archival system
// built on Shamir's secret sharing: each share goes to an administratively
// independent provider, giving information-theoretic confidentiality at
// rest with no keys to manage, at replication-grade storage cost. Its
// published design does NOT proactively refresh shares — the drawback the
// paper leads with: "given enough time, we must entertain the possibility
// that a mobile adversary eventually steals a threshold number of shares."
// Breach implements exactly that: harvested shares from ANY epochs
// combine, because the polynomial never changes.
type POTSHARDS struct {
	Cluster *cluster.Cluster
	N, T    int
}

// NewPOTSHARDS builds the system with a (t, n) sharing, one share per node.
func NewPOTSHARDS(c *cluster.Cluster, n, t int) (*POTSHARDS, error) {
	if n > c.Size() {
		return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
	}
	if t < 1 || t > n {
		return nil, fmt.Errorf("systems: invalid threshold %d of %d", t, n)
	}
	return &POTSHARDS{Cluster: c, N: n, T: t}, nil
}

// Name implements Archive.
func (s *POTSHARDS) Name() string { return "POTSHARDS" }

// Store implements Archive.
func (s *POTSHARDS) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	shares, err := shamir.Split(data, s.N, s.T, rnd)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, s.N)
	for i, sh := range shares {
		shards[i] = sh.Payload
	}
	if err := putShards(s.Cluster, object, shards); err != nil {
		return nil, err
	}
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive: any t online providers suffice, and the
// degraded read stops probing once it has them.
func (s *POTSHARDS) Retrieve(ref *Ref) ([]byte, error) {
	shards, err := getShardsDegraded(s.Cluster, ref.Object, s.N, s.T, nil)
	if err != nil {
		return nil, err
	}
	out, err := shamir.Combine(sharesOf(shards, s.T, s.T))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	return out, nil
}

// RetrieveRobust reads the object even when up to maxErrors providers
// return CORRUPTED shares — POTSHARDS has no share commitments, so it
// leans on the Reed-Solomon structure of Shamir shares (McEliece–
// Sarwate) and Berlekamp–Welch decoding instead. Requires
// n ≥ t + 2·maxErrors reachable providers.
func (s *POTSHARDS) RetrieveRobust(ref *Ref, maxErrors int) ([]byte, error) {
	shards := getShards(s.Cluster, ref.Object, s.N)
	out, err := shamir.CombineRobust(sharesOf(shards, s.T, s.N), maxErrors)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	return out, nil
}

// Renew implements Archive: POTSHARDS as published has no share renewal.
func (s *POTSHARDS) Renew(ref *Ref, rnd io.Reader) error {
	return fmt.Errorf("%w: POTSHARDS does not renew shares", ErrNotSupported)
}

// Classify implements Archive.
func (s *POTSHARDS) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational, // provider links are TLS
		RestClass:    sec.IT,
	}
}

// Breach implements Archive: shares are static, so harvests from
// different epochs combine freely; breaks are irrelevant.
func (s *POTSHARDS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	shares := harvestedShamir(adv, ref.Object, s.T, false)
	if len(shares) < s.T {
		return BreachResult{Reason: fmt.Sprintf("%d/%d shares harvested", len(shares), s.T)}
	}
	pt, err := shamir.Combine(shares[:s.T])
	if err != nil {
		return BreachResult{Violated: true, Reason: "threshold met but shares inconsistent"}
	}
	return BreachResult{Violated: true, Full: true, Recovered: pt,
		Reason: "mobile adversary accumulated a threshold of static shares"}
}
