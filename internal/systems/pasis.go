package systems

import (
	"fmt"
	"io"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/rs"
	"securearchive/internal/sec"
)

// PASISMode selects PASIS's per-object data encoding.
type PASISMode int

// The encodings PASIS lets its users pick from — the "no one size fits
// all" position the paper quotes.
const (
	// PASISReplication: r full copies. No confidentiality, lowest latency.
	PASISReplication PASISMode = iota
	// PASISErasure: k-of-n erasure coding. No confidentiality, low cost.
	PASISErasure
	// PASISEncryptEC: AES + erasure coding. Computational, low cost.
	PASISEncryptEC
	// PASISSecretShare: (t, n) Shamir. Information-theoretic, high cost.
	PASISSecretShare
)

// String names the mode.
func (m PASISMode) String() string {
	switch m {
	case PASISReplication:
		return "replication"
	case PASISErasure:
		return "erasure"
	case PASISEncryptEC:
		return "encrypt+ec"
	case PASISSecretShare:
		return "secret-share"
	default:
		return fmt.Sprintf("PASISMode(%d)", int(m))
	}
}

// PASIS (Ganger et al., CMU) is the configurable survivable-storage
// framework: every object is stored under whichever p-m-n threshold
// scheme its owner picks, from replication through erasure coding to
// secret sharing. Table 1 renders that flexibility as "ITS (sometimes)"
// at rest and "Low-High" cost; experiment E11 sweeps the modes to draw
// the whole band.
type PASIS struct {
	Cluster *cluster.Cluster
	Mode    PASISMode
	N, T    int
	// inner delegates per mode.
	cloud *CloudAES
	pots  *POTSHARDS
	code  *rs.Code
	lens  map[string]int
}

// NewPASIS builds a PASIS instance fixed to one mode (one per-object
// policy; construct several for mixed workloads).
func NewPASIS(c *cluster.Cluster, mode PASISMode, n, t int) (*PASIS, error) {
	p := &PASIS{Cluster: c, Mode: mode, N: n, T: t, lens: make(map[string]int)}
	var err error
	switch mode {
	case PASISReplication:
		if n > c.Size() {
			return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
		}
	case PASISErasure:
		p.code, err = rs.New(t, n-t)
		if err != nil {
			return nil, err
		}
		if n > c.Size() {
			return nil, fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, n)
		}
	case PASISEncryptEC:
		p.cloud, err = NewCloudAES(c, t, n-t)
		if err != nil {
			return nil, err
		}
	case PASISSecretShare:
		p.pots, err = NewPOTSHARDS(c, n, t)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("systems: unknown PASIS mode %d", mode)
	}
	return p, nil
}

// Name implements Archive.
func (p *PASIS) Name() string { return "PASIS" }

// Store implements Archive.
func (p *PASIS) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	switch p.Mode {
	case PASISReplication:
		shards := make([][]byte, p.N)
		for i := range shards {
			shards[i] = data
		}
		if err := putShards(p.Cluster, object, shards); err != nil {
			return nil, err
		}
		p.lens[object] = len(data)
	case PASISErasure:
		shards, err := p.code.Encode(data)
		if err != nil {
			return nil, err
		}
		if err := putShards(p.Cluster, object, shards); err != nil {
			return nil, err
		}
		p.lens[object] = len(data)
	case PASISEncryptEC:
		if _, err := p.cloud.Store(object, data, rnd); err != nil {
			return nil, err
		}
	case PASISSecretShare:
		if _, err := p.pots.Store(object, data, rnd); err != nil {
			return nil, err
		}
	}
	return &Ref{System: p.Name(), Object: object, PlainLen: len(data)}, nil
}

// Retrieve implements Archive.
func (p *PASIS) Retrieve(ref *Ref) ([]byte, error) {
	switch p.Mode {
	case PASISReplication:
		// One good replica suffices; the degraded read retries flaky
		// providers before falling back to the next.
		shards, err := getShardsDegraded(p.Cluster, ref.Object, p.N, 1, nil)
		if err != nil {
			return nil, err
		}
		for _, sh := range shards {
			if sh != nil {
				return sh, nil
			}
		}
		return nil, fmt.Errorf("%w: no replica reachable", ErrRetrieval)
	case PASISErasure:
		shards, err := getShardsDegraded(p.Cluster, ref.Object, p.code.TotalShards(), p.code.DataShards(), nil)
		if err != nil {
			return nil, err
		}
		if err := p.code.Reconstruct(shards); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRetrieval, err)
		}
		return p.code.Join(shards, p.lens[ref.Object])
	case PASISEncryptEC:
		return p.cloud.Retrieve(&Ref{System: p.cloud.Name(), Object: ref.Object, PlainLen: ref.PlainLen})
	case PASISSecretShare:
		return p.pots.Retrieve(&Ref{System: p.pots.Name(), Object: ref.Object, PlainLen: ref.PlainLen})
	}
	return nil, fmt.Errorf("systems: unknown PASIS mode %d", p.Mode)
}

// Renew implements Archive.
func (p *PASIS) Renew(ref *Ref, rnd io.Reader) error {
	return fmt.Errorf("%w: PASIS leaves renewal policy to the user", ErrNotSupported)
}

// Classify implements Archive: the at-rest class depends on the chosen
// mode — Table 1's "ITS (sometimes)" row, made concrete.
func (p *PASIS) Classify() sec.Profile {
	rest := sec.None
	switch p.Mode {
	case PASISEncryptEC:
		rest = sec.Computational
	case PASISSecretShare:
		rest = sec.IT
	}
	return sec.Profile{
		System:       p.Name(),
		TransitClass: sec.Computational,
		RestClass:    rest,
	}
}

// Breach implements Archive, per mode.
func (p *PASIS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	switch p.Mode {
	case PASISReplication:
		if adv.MaxAnyEpochShards(ref.Object) >= 1 {
			h := adv.Harvest(ref.Object)
			return BreachResult{Violated: true, Full: true, Recovered: h[0].Shard.Data,
				Reason: "replication stores plaintext; one node sufficed"}
		}
		return BreachResult{Reason: "no replica harvested"}
	case PASISErasure:
		have := adv.MaxAnyEpochShards(ref.Object)
		if have >= p.code.DataShards() {
			return BreachResult{Violated: true, Full: true,
				Reason: "erasure coding is not encryption: k shards decode publicly"}
		}
		if have >= 1 {
			return BreachResult{Violated: true, Full: false,
				Reason: "systematic erasure shards ARE plaintext fragments"}
		}
		return BreachResult{Reason: "no shards harvested"}
	case PASISEncryptEC:
		return p.cloud.Breach(adv, &Ref{Object: ref.Object, PlainLen: ref.PlainLen}, breaks, epoch)
	case PASISSecretShare:
		return p.pots.Breach(adv, &Ref{Object: ref.Object, PlainLen: ref.PlainLen}, breaks, epoch)
	}
	return BreachResult{Reason: "unknown mode"}
}

// ModeOverhead returns the storage overhead the mode implies, for the
// E11 sweep: replication n×, erasure n/t×, encrypt+EC n/t×, sharing n×.
func (p *PASIS) ModeOverhead() float64 {
	switch p.Mode {
	case PASISReplication, PASISSecretShare:
		return float64(p.N)
	default:
		return float64(p.N) / float64(p.T)
	}
}
