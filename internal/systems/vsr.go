package systems

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/sec"
)

// VSRArchive models Wong, Wang & Wing's verifiable secret redistribution
// archive: Shamir sharing at rest — core.SecretSharing in a vault, whose
// per-shard digests play the commitments that let holders verify what
// they receive — plus a renewal protocol that re-randomises every share.
// Against the mobile adversary the renewal is the entire defence: shares
// harvested in different epochs lie on different polynomials and cannot
// be combined — which Breach demonstrates by insisting on same-epoch
// shards. The cost, per §3.2, is all-to-all renewal traffic, metered in
// RenewTraffic.
type VSRArchive struct {
	vaulted
	N, T int
	// RenewTraffic accumulates bytes a real deployment of the protocol
	// would move during renewals (zero-share dealings + commitment
	// broadcasts) and repairs — not what the vault's re-encode moves.
	RenewTraffic int64
}

// NewVSRArchive builds the system with a (t, n) sharing.
func NewVSRArchive(c *cluster.Cluster, n, t int) (*VSRArchive, error) {
	if err := checkSharing(c, n, t); err != nil {
		return nil, err
	}
	v, err := newVaulted(c, core.SecretSharing{T: t, N: n})
	if err != nil {
		return nil, err
	}
	return &VSRArchive{vaulted: v, N: n, T: t}, nil
}

// Name implements Archive.
func (s *VSRArchive) Name() string { return "VSR Archive" }

// Store implements Archive.
func (s *VSRArchive) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	return s.store(s.Name(), object, data)
}

// Renew implements Archive: the vault's share renewal, which decodes
// each chunk from digest-checked shares, re-shares it on a fresh
// polynomial and writes the stripe back as one staged write; the cluster
// epoch-stamps the rewritten shards, which is what defeats cross-epoch
// harvest mixing. It stands in for the deployed Herzberg zero-sharing
// refresh, which never reconstructs: each chunk's plaintext passes
// through the client here, while RenewTraffic meters the deployed
// protocol.
func (s *VSRArchive) Renew(ref *Ref, _ io.Reader) error {
	if err := s.renew(ref); err != nil {
		return err
	}
	// Each node's new share and its commitment broadcast, plus the
	// all-to-all dealing traffic of a real (non-simulated) execution.
	s.RenewTraffic += int64(s.N)*int64(ref.PlainLen+sha256.Size) + int64(s.N*(s.N-1))*int64(ref.PlainLen)
	return nil
}

// Repair rebuilds lost or corrupted shares through the vault's scrub,
// which finds every missing or rotted share — lost is only checked to
// name a provider — decodes each damaged chunk from t verified shares
// and re-shares it on a fresh polynomial, staged and committed like any
// write. So a repair re-randomises all n shares of a damaged chunk, and
// every provider must be up for it: one that is down, the target or
// not, fails the repair and leaves the stripe as it was. (The deployed
// protocol instead has t helpers send blinded contributions that only
// the lost provider can combine, so no one reconstructs and the other
// shares stay put.) As for Renew, RenewTraffic meters the deployed
// protocol: t blinded contributions and the rebuilt share.
func (s *VSRArchive) Repair(ref *Ref, lost int, _ io.Reader) error {
	if lost < 0 || lost >= s.N {
		return fmt.Errorf("systems: no provider %d", lost)
	}
	rep, err := s.v.Scrub(context.TODO(), ref.Object)
	if errors.Is(err, core.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	if err != nil {
		return err
	}
	if rep.Repaired {
		s.RenewTraffic += int64(s.T*(ref.PlainLen+2) + ref.PlainLen)
	}
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
	return breachShares(adv, ref, s.T, true)
}
