package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
)

// POTSHARDS (Storer et al., ToS '09) was the first full archival system
// built on Shamir's secret sharing: each share goes to an administratively
// independent provider, giving information-theoretic confidentiality at
// rest with no keys to manage, at replication-grade storage cost — here
// core.SecretSharing in a vault. Its published design does NOT
// proactively refresh shares — the drawback the paper leads with: "given
// enough time, we must entertain the possibility that a mobile adversary
// eventually steals a threshold number of shares." Breach implements
// exactly that: harvested shares from ANY epochs combine, because the
// polynomial never changes.
type POTSHARDS struct {
	vaulted
	N, T int
}

// NewPOTSHARDS builds the system with a (t, n) sharing, one share per node.
func NewPOTSHARDS(c *cluster.Cluster, n, t int) (*POTSHARDS, error) {
	if err := checkSharing(c, n, t); err != nil {
		return nil, err
	}
	v, err := newVaulted(c, core.SecretSharing{T: t, N: n})
	if err != nil {
		return nil, err
	}
	return &POTSHARDS{vaulted: v, N: n, T: t}, nil
}

// Name implements Archive.
func (s *POTSHARDS) Name() string { return "POTSHARDS" }

// Store implements Archive.
func (s *POTSHARDS) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	return s.store(s.Name(), object, data)
}

// RetrieveRobust reads the object even when up to maxErrors providers
// return CORRUPTED shares without any digest to catch them — it leans on
// the Reed-Solomon structure of Shamir shares (McEliece–Sarwate) and
// Berlekamp–Welch decoding, chunk stripe by chunk stripe. Requires
// n ≥ t + 2·maxErrors reachable providers.
func (s *POTSHARDS) RetrieveRobust(ref *Ref, maxErrors int) ([]byte, error) {
	info, err := s.v.Stat(ref.Object)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	var out []byte
	for ci := 0; ci < info.Chunks; ci++ {
		shards := getShards(s.v.Cluster, ref.Object, ci, s.N)
		part, err := shamir.CombineRobust(sharesOf(shards, s.T, s.N), maxErrors)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
		}
		out = append(out, part...)
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

// Breach implements Archive.
func (s *POTSHARDS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	return breachStaticShares(adv, ref, s.T)
}

// breachStaticShares is the Breach of a vault of Shamir shares that are
// never renewed (POTSHARDS, PASIS secret-share): harvests from different
// epochs combine freely and breaks are irrelevant. Each chunk stripe
// needs t shares of its own; the chunks' secrets concatenate to the
// object.
func breachStaticShares(adv *adversary.Mobile, ref *Ref, t int) BreachResult {
	stripes := harvestedStripes(adv, ref.Object)
	have := 0
	for ci, st := range stripes {
		if ci == 0 || len(st) < have {
			have = len(st)
		}
	}
	if have < t {
		return BreachResult{Reason: fmt.Sprintf("%d/%d shares harvested", have, t)}
	}
	var pt []byte
	for _, st := range stripes {
		shares := make([]shamir.Share, 0, t)
		for idx, data := range st {
			if len(shares) < t {
				shares = append(shares, shamir.Share{X: byte(idx + 1), Threshold: byte(t), Payload: data})
			}
		}
		part, err := shamir.Combine(shares)
		if err != nil {
			return BreachResult{Violated: true, Reason: "threshold met but shares inconsistent"}
		}
		pt = append(pt, part...)
	}
	return BreachResult{Violated: true, Full: true, Recovered: pt,
		Reason: "mobile adversary accumulated a threshold of static shares"}
}
