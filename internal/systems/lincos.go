package systems

import (
	"crypto/sha256"
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/otp"
	"securearchive/internal/qkd"
	"securearchive/internal/sec"
	"securearchive/internal/shamir"
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
//   - at rest: (t, n) Shamir shares, one per node, with Herzberg refresh
//   - in transit: per-link OTP pads produced by simulated BB84 sessions;
//     shards are pad-encrypted on the wire (and the wire copy is what a
//     transit eavesdropper would capture — nothing, information-
//     theoretically)
//   - integrity: one commitment-mode timestamp chain per object, renewed
//     across signature schemes
type LINCOS struct {
	Cluster *cluster.Cluster
	N, T    int
	Group   *group.Group
	// pads[i] is the QKD-established pad for the link to node i.
	pads []*otp.Pad
	// chains[object] is the object's commitment timestamp chain.
	chains map[string]*tstamp.Chain
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
func NewLINCOS(c *cluster.Cluster, n, t int, grp *group.Group, seed int64) (*LINCOS, error) {
	if n > c.Size() {
		return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
	}
	if t < 1 || t > n {
		return nil, fmt.Errorf("systems: invalid threshold %d of %d", t, n)
	}
	if grp == nil {
		grp = group.Default()
	}
	s := &LINCOS{Cluster: c, N: n, T: t, Group: grp, chains: make(map[string]*tstamp.Chain), seed: seed}
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

// Store implements Archive: Shamir-share, pad-encrypt each share for its
// link, deliver (the node stores the share; the wire saw only OTP
// ciphertext), and open a commitment timestamp chain.
func (s *LINCOS) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	shares, err := shamir.Split(data, s.N, s.T, rnd)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, s.N)
	for i, sh := range shares {
		// Transit: OTP-encrypt on the wire; the receiving node decrypts
		// with its pad copy. The simulation performs both ends: the pads
		// package zeroes consumed key, so the node is handed the
		// plaintext share directly — the wire bytes, the ciphertext's
		// body, are provably independent of it.
		pad, err := s.padFor(i, len(sh.Payload))
		if err != nil {
			return nil, err
		}
		if _, err := pad.Encrypt(sh.Payload); err != nil {
			return nil, fmt.Errorf("systems: link %d pad: %w", i, err)
		}
		shards[i] = sh.Payload
	}
	chain, err := tstamp.New(data, tstamp.RefCommitment, sig.Ed25519, s.Cluster.Epoch(), s.Group, rnd)
	if err != nil {
		return nil, err
	}
	if err := putShards(s.Cluster, object, shards); err != nil {
		return nil, err
	}
	s.chains[object] = chain
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive, verifying the timestamp chain's opening.
func (s *LINCOS) Retrieve(ref *Ref) ([]byte, error) {
	shares := sharesOf(getShards(s.Cluster, ref.Object, s.N), s.T, s.T)
	if len(shares) < s.T {
		return nil, fmt.Errorf("%w: %d/%d shares reachable", ErrRetrieval, len(shares), s.T)
	}
	data, err := shamir.Combine(shares)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
	}
	if chain, ok := s.chains[ref.Object]; ok {
		if err := chain.VerifyData(data); err != nil {
			return nil, fmt.Errorf("systems: integrity chain rejects retrieved data: %w", err)
		}
	}
	return data, nil
}

// Renew implements Archive: Herzberg share refresh, written back as one
// stripe, then a timestamp-chain renewal rotated across signature
// schemes.
func (s *LINCOS) Renew(ref *Ref, rnd io.Reader) error {
	chain, ok := s.chains[ref.Object]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shards, err := refreshShares(s.Cluster, ref.Object, s.N, s.T, ref.PlainLen, rnd, nil)
	if err != nil {
		return err
	}
	if err := putShards(s.Cluster, ref.Object, shards); err != nil {
		return err
	}
	// Rotate away from the launch scheme (Ed25519) and never back: a
	// scheme nearing its end of life must not reappear later in the chain.
	rotation := []sig.Scheme{sig.ECDSAP256, sig.RSAPSS2048}
	next := rotation[(chain.Len()-1)%len(rotation)]
	return chain.Renew(next, s.Cluster.Epoch(), rnd)
}

// Chain exposes the object's timestamp chain for integrity experiments.
func (s *LINCOS) Chain(object string) *tstamp.Chain { return s.chains[object] }

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
	shares := harvestedShamir(adv, ref.Object, s.T, true)
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
