package systems

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/adversary"
	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/pss"
	"securearchive/internal/sec"
	"securearchive/internal/vss"
)

// HasDPSS models Zhang et al.'s decentralised key-management system
// (CIKM '23): secrets (keys) protected by *dynamic* proactive secret
// sharing with Pedersen-VSS verification, and every committee operation
// recorded on an append-only hash chain — the blockchain component that
// makes the committee's history publicly auditable. It is the paper's
// §4 pointer that secret-shared archives should borrow key-management
// architecture.
//
// The archival objects here are key-sized secrets (≤ the group's scalar
// capacity): Table 1 classifies the system's payload, which IS the keys.
// Shares live on cluster nodes as serialised scalars; renewal runs the
// verified scalar-PSS protocol and appends a ledger block.
type HasDPSS struct {
	Cluster *cluster.Cluster
	N, T    int
	Group   *group.Group
	// committees tracks the live scalar committee per object.
	committees map[string]*pss.ScalarCommittee
	secretLen  map[string]int
	// Ledger is the audit chain: block i hashes block i-1 plus the
	// operation description. Tampering with history is detectable by
	// anyone replaying the chain.
	Ledger []LedgerBlock
}

// LedgerBlock is one audit-chain entry.
type LedgerBlock struct {
	PrevHash [sha256.Size]byte
	Op       string
	Epoch    int
}

// Hash hashes the block for chaining.
func (b LedgerBlock) Hash() [sha256.Size]byte {
	h := sha256.New()
	h.Write(b.PrevHash[:])
	h.Write([]byte(b.Op))
	var e [8]byte
	for i := 0; i < 8; i++ {
		e[i] = byte(uint64(b.Epoch) >> (8 * i))
	}
	h.Write(e[:])
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// NewHasDPSS builds the system.
func NewHasDPSS(c *cluster.Cluster, n, t int, grp *group.Group) (*HasDPSS, error) {
	if err := checkSharing(c, n, t); err != nil {
		return nil, err
	}
	if grp == nil {
		grp = group.Default()
	}
	return &HasDPSS{
		Cluster: c, N: n, T: t, Group: grp,
		committees: make(map[string]*pss.ScalarCommittee),
		secretLen:  make(map[string]int),
	}, nil
}

// Name implements Archive.
func (s *HasDPSS) Name() string { return "HasDPSS" }

// appendLedger chains an operation record.
func (s *HasDPSS) appendLedger(op string) {
	var prev [sha256.Size]byte
	if len(s.Ledger) > 0 {
		prev = s.Ledger[len(s.Ledger)-1].Hash()
	}
	s.Ledger = append(s.Ledger, LedgerBlock{PrevHash: prev, Op: op, Epoch: s.Cluster.Epoch()})
}

// VerifyLedger replays the audit chain.
func (s *HasDPSS) VerifyLedger() error {
	var prev [sha256.Size]byte
	for i, b := range s.Ledger {
		if b.PrevHash != prev {
			return fmt.Errorf("systems: ledger block %d does not chain", i)
		}
		prev = b.Hash()
	}
	return nil
}

// Store implements Archive: data must fit the scalar capacity (these are
// keys, not bulk objects).
func (s *HasDPSS) Store(object string, data []byte, rnd io.Reader) (*Ref, error) {
	if len(data) == 0 || len(data) > s.Group.ScalarCapacity() {
		return nil, fmt.Errorf("systems: HasDPSS stores key-sized secrets (1..%d bytes), got %d",
			s.Group.ScalarCapacity(), len(data))
	}
	cm, err := pss.NewScalarCommittee(s.Group, new(big.Int).SetBytes(data), s.N, s.T, rnd)
	if err != nil {
		return nil, err
	}
	if err := s.putCommittee(object, cm); err != nil {
		return nil, err
	}
	s.committees[object] = cm
	s.secretLen[object] = len(data)
	s.appendLedger("store " + object)
	return &Ref{System: s.Name(), Object: object, PlainLen: len(data)}, nil
}

// putCommittee writes cm's shares as one stripe, share i to node i.
func (s *HasDPSS) putCommittee(object string, cm *pss.ScalarCommittee) error {
	shards := make([][]byte, len(cm.Shares))
	for i, sh := range cm.Shares {
		shards[i] = encodeScalarShare(sh.S, sh.Blind)
	}
	return putShards(s.Cluster, object, shards)
}

// cloneCommittee copies cm deeply enough for Renew and Redistribute, which
// replace (never mutate) its commitments and scalars but write into its
// Shares slice: a protocol round runs on the copy, and the live committee
// changes only once the copy's shares are committed.
func cloneCommittee(cm *pss.ScalarCommittee) *pss.ScalarCommittee {
	next := *cm
	next.Shares = append([]vss.Share(nil), cm.Shares...)
	return &next
}

// encodeScalarShare serialises (S, Blind) with length framing.
func encodeScalarShare(sc, blind *big.Int) []byte {
	sb := sc.Bytes()
	bb := blind.Bytes()
	out := make([]byte, 0, 4+len(sb)+len(bb))
	out = append(out, byte(len(sb)>>8), byte(len(sb)))
	out = append(out, sb...)
	out = append(out, byte(len(bb)>>8), byte(len(bb)))
	out = append(out, bb...)
	return out
}

// decodeScalarShare reverses encodeScalarShare.
func decodeScalarShare(b []byte) (*big.Int, *big.Int, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("systems: truncated scalar share")
	}
	sl := int(b[0])<<8 | int(b[1])
	if len(b) < 2+sl+2 {
		return nil, nil, fmt.Errorf("systems: truncated scalar share")
	}
	sc := new(big.Int).SetBytes(b[2 : 2+sl])
	rest := b[2+sl:]
	bl := int(rest[0])<<8 | int(rest[1])
	if len(rest) < 2+bl {
		return nil, nil, fmt.Errorf("systems: truncated scalar share")
	}
	blind := new(big.Int).SetBytes(rest[2 : 2+bl])
	return sc, blind, nil
}

// Retrieve implements Archive, verifying shares against the committee's
// public commitments before combining.
func (s *HasDPSS) Retrieve(ref *Ref) ([]byte, error) {
	cm, ok := s.committees[ref.Object]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	shares := make([]vss.Share, 0, cm.T)
	for i := 0; i < cm.N && len(shares) < cm.T; i++ {
		sh, err := s.Cluster.GetRetryCtx(context.TODO(), i, cluster.ShardKey{Object: ref.Object, Index: i}, cluster.DefaultRetry)
		if err != nil {
			continue
		}
		sc, blind, err := decodeScalarShare(sh.Data)
		if err != nil {
			continue
		}
		cand := vss.Share{X: int64(i + 1), S: sc, Blind: blind}
		if err := vss.Verify(cm.Comms, cand); err != nil {
			continue // stale or corrupt share: rejected, not combined
		}
		shares = append(shares, cand)
	}
	if len(shares) < cm.T {
		return nil, fmt.Errorf("%w: %d/%d verified shares", ErrRetrieval, len(shares), cm.T)
	}
	val, err := vss.Combine(s.Group, shares, cm.T)
	if err != nil {
		return nil, err
	}
	out := make([]byte, s.secretLen[ref.Object])
	vb := val.Bytes()
	if len(vb) > len(out) {
		return nil, fmt.Errorf("%w: reconstructed value too large", ErrRetrieval)
	}
	copy(out[len(out)-len(vb):], vb)
	return out, nil
}

// Renew implements Archive: the verified scalar-PSS renewal, run on a
// copy of the committee whose shares are committed before the copy
// replaces it and the ledger records the round.
func (s *HasDPSS) Renew(ref *Ref, rnd io.Reader) error {
	cm, ok := s.committees[ref.Object]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	next := cloneCommittee(cm)
	if err := next.Renew(rnd); err != nil {
		return err
	}
	if err := s.putCommittee(ref.Object, next); err != nil {
		return err
	}
	s.committees[ref.Object] = next
	s.appendLedger("renew " + ref.Object)
	return nil
}

// Resize runs verifiable redistribution to change one object's committee
// shape (the "dynamic" in HasDPSS): the new committee's shards are
// committed as one stripe, the operation is chained into the audit
// ledger, and then the shards of departed members are deleted.
func (s *HasDPSS) Resize(ref *Ref, nNew, tNew int, rnd io.Reader) error {
	cm, ok := s.committees[ref.Object]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref.Object)
	}
	if nNew > s.Cluster.Size() {
		return fmt.Errorf("%w: need %d nodes", ErrTooFewNodes, nNew)
	}
	next, err := cloneCommittee(cm).Redistribute(nNew, tNew, rnd)
	if err != nil {
		return err
	}
	if err := s.putCommittee(ref.Object, next); err != nil {
		return err
	}
	s.committees[ref.Object] = next
	s.appendLedger(fmt.Sprintf("resize %s to (%d,%d)", ref.Object, tNew, nNew))
	for i := nNew; i < cm.N; i++ {
		if err := s.Cluster.Delete(i, cluster.ShardKey{Object: ref.Object, Index: i}); err != nil {
			return err
		}
	}
	return nil
}

// Classify implements Archive.
func (s *HasDPSS) Classify() sec.Profile {
	return sec.Profile{
		System:       s.Name(),
		TransitClass: sec.Computational,
		RestClass:    sec.IT,
	}
}

// Breach implements Archive: same-epoch scalar shares above the threshold
// reconstruct; renewal invalidates older hauls.
func (s *HasDPSS) Breach(adv *adversary.Mobile, ref *Ref, breaks adversary.Breaks, epoch int) BreachResult {
	cm, ok := s.committees[ref.Object]
	if !ok {
		return BreachResult{Reason: "object unknown"}
	}
	best := 0
	var bestShares []vss.Share
	for _, byIdx := range adv.DistinctShards(ref.Object) {
		if len(byIdx) <= best {
			continue
		}
		cur := make([]vss.Share, 0, len(byIdx))
		for idx, data := range byIdx {
			sc, blind, err := decodeScalarShare(data)
			if err != nil {
				continue
			}
			cur = append(cur, vss.Share{X: int64(idx + 1), S: sc, Blind: blind})
		}
		if len(cur) > best {
			best = len(cur)
			bestShares = cur
		}
	}
	if best < cm.T {
		return BreachResult{Reason: fmt.Sprintf("best same-epoch haul is %d/%d shares", best, cm.T)}
	}
	val, err := vss.Combine(s.Group, bestShares[:cm.T], cm.T)
	if err != nil {
		return BreachResult{Violated: true, Reason: "threshold met but shares malformed"}
	}
	out := make([]byte, s.secretLen[ref.Object])
	vb := val.Bytes()
	if len(vb) <= len(out) {
		copy(out[len(out)-len(vb):], vb)
	}
	return BreachResult{Violated: true, Full: true, Recovered: out,
		Reason: "adversary out-raced the renewal period"}
}
