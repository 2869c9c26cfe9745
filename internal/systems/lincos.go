package systems

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/otp"
	"securearchive/internal/qkd"
	"securearchive/internal/sec"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// LINCOS (Braun et al., AsiaCCS '17) is the system the paper credits with
// end-to-end information-theoretic protection: secret sharing at rest,
// QKD-derived one-time pads on every link in transit, and timestamp
// chains whose hashes are replaced by Pedersen commitments so the
// integrity evidence itself never leaks anything. This miniature
// implements all three:
//
//   - at rest: (t, n) Shamir shares, one per node — core.SecretSharing in
//     a vault — renewed onto fresh polynomials
//   - in transit: per-link OTP pads produced by simulated BB84 sessions;
//     each link spends a share's worth of pad per store (the wire copy is
//     what a transit eavesdropper would capture — nothing, information-
//     theoretically)
//   - integrity: the vault's commitment-mode timestamp chain, one per
//     object, renewed across signature schemes
type LINCOS struct {
	vaulted
	N, T int
	// pads[i] is the QKD-established pad for the link to node i.
	pads []*otp.Pad
	// QKDSessions counts BB84 runs, for cost reporting.
	QKDSessions int
	// seed drives the deterministic QKD simulation; each replenishment
	// session uses a fresh derived seed.
	seed int64
}

// padBudget is the pad material established per link at construction.
const padBudget = 1 << 20

// NewLINCOS builds the system, running one simulated QKD session per node
// link to establish transit pads.
func NewLINCOS(c *cluster.Cluster, n, t int, seed int64) (*LINCOS, error) {
	if err := checkSharing(c, n, t); err != nil {
		return nil, err
	}
	v, err := newVaulted(c, core.SecretSharing{T: t, N: n})
	if err != nil {
		return nil, err
	}
	s := &LINCOS{vaulted: v, N: n, T: t, seed: seed}
	s.pads = make([]*otp.Pad, n)
	for i := 0; i < n; i++ {
		if err := s.replenishPad(i, padBudget); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replenishPad runs a fresh BB84 session for link i and installs a new
// pad pool of at least `need` bytes. Production LINCOS runs QKD
// continuously and banks key; the simulation runs sessions on demand.
func (s *LINCOS) replenishPad(i int, need int) error {
	res, err := qkd.Run(qkd.Params{
		Photons: 4096, NoiseRate: 0.01, SampleFraction: 0.25, AbortQBER: 0.11,
	}, s.seed+int64(s.QKDSessions)*131+int64(i))
	if err != nil {
		return fmt.Errorf("systems: QKD link %d: %w", i, err)
	}
	s.QKDSessions++
	budget := padBudget
	if need > budget {
		budget = need
	}
	// Stretch the QKD key into a pad pool. (A real deployment would
	// accumulate raw QKD key; the stretch marks where simulation
	// substitutes for key volume, not for protocol structure.)
	pad, err := stretchPad(res.Key, budget)
	if err != nil {
		return err
	}
	s.pads[i] = pad
	return nil
}

// padFor returns link i's pad, replenishing when fewer than `need` bytes
// remain.
func (s *LINCOS) padFor(i, need int) (*otp.Pad, error) {
	if s.pads[i].Remaining() < need {
		if err := s.replenishPad(i, need); err != nil {
			return nil, err
		}
	}
	return s.pads[i], nil
}

// stretchPad deterministically expands seed material into a pad pool via
// SHA-256 in counter mode. This is a documented simulation substitute: a
// real LINCOS link accumulates raw QKD key until it has pad volume; the
// stretch stands in for key *volume*, not for protocol structure, and the
// wire-level OTP usage below is unchanged by it.
func stretchPad(seedKey []byte, n int) (*otp.Pad, error) {
	buf := make([]byte, n)
	var ctr [8]byte
	for off := 0; off < n; {
		h := sha256.New()
		h.Write(seedKey)
		h.Write(ctr[:])
		off += copy(buf[off:], h.Sum(nil))
		for i := 0; i < 8; i++ {
			ctr[i]++
			if ctr[i] != 0 {
				break
			}
		}
	}
	return otp.NewPad(buf), nil
}

// Name implements Archive.
func (s *LINCOS) Name() string { return "LINCOS" }

// Store implements Archive: every link spends a share's worth of pad —
// Shamir shares are as long as the data — on the OTP-encrypted wire copy
// (the receiving node decrypts with its pad copy; the simulation is both
// ends, and the wire bytes are provably independent of the share), and
// the vault shares the data and opens its commitment timestamp chain.
func (s *LINCOS) Store(object string, data []byte, _ io.Reader) (*Ref, error) {
	wire := make([]byte, len(data))
	for i := range s.pads {
		pad, err := s.padFor(i, len(wire))
		if err != nil {
			return nil, err
		}
		if _, err := pad.Encrypt(wire); err != nil {
			return nil, fmt.Errorf("systems: link %d pad: %w", i, err)
		}
	}
	return s.store(s.Name(), object, data)
}

// Renew implements Archive: the vault's share renewal, which re-encodes
// every chunk onto a fresh polynomial and writes it back as one staged
// stripe (standing in for Herzberg's zero-sharing refresh, which never
// reconstructs), then a timestamp-chain renewal rotated across signature
// schemes.
func (s *LINCOS) Renew(ref *Ref, _ io.Reader) error {
	if err := s.renew(ref); err != nil {
		return err
	}
	// Rotate away from the launch scheme (Ed25519) and never back: a
	// scheme nearing its end of life must not reappear later in the chain.
	rotation := []sig.Scheme{sig.ECDSAP256, sig.RSAPSS2048}
	next := rotation[(s.v.Chain(ref.Object).Len()-1)%len(rotation)]
	return s.v.RenewIntegrity(context.TODO(), ref.Object, next)
}

// Chain exposes the object's timestamp chain for integrity experiments.
func (s *LINCOS) Chain(object string) *tstamp.Chain { return s.v.Chain(object) }

// Classify implements Archive: the only all-ITS row of Table 1.
func (s *LINCOS) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.IT,
		RestClass:    sec.IT,
	}
}

// Breach implements Archive: transit yields nothing (OTP), commitments
// yield nothing (perfectly hiding), so the only avenue is the mobile
// adversary assembling a same-epoch threshold of shares at rest.
func (s *LINCOS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	return breachShares(adv, ref, s.T, true)
}
