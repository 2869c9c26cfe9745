// Package tstamp implements Haber–Stornetta timestamp chains with
// signature-scheme rotation, and the LINCOS variant that replaces hashes
// with information-theoretically hiding Pedersen commitments (§3.3).
//
// A chain protects one archival object. Link k binds (a) the object
// reference — either its SHA-256 digest or a Pedersen commitment to it —
// (b) the full serialisation of link k−1, and (c) the epoch, under a
// digital signature. When a signature scheme approaches its end of life,
// the archive appends a fresh link signed with a newer scheme; the new
// signature covers the old one, so the old link's integrity is preserved
// *provided the renewal happened before the old scheme broke*. Verify
// checks exactly that condition against a sig.BreakSchedule: the chain is
// the paper's "more nuanced computationally bounded adversary" made
// machine-checkable (experiment E7).
//
// The hash-reference mode leaks a digest of the archived data — a
// confidentiality hole under Harvest-Now-Decrypt-Later if the data is
// guessable. Commitment mode (LINCOS) publishes only a Pedersen
// commitment, which reveals nothing information-theoretically; the
// opening stays with the data owner.
package tstamp

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"securearchive/internal/commit"
	"securearchive/internal/group"
	"securearchive/internal/sig"
)

// Errors returned by this package.
var (
	ErrEmptyChain    = errors.New("tstamp: empty chain")
	ErrBrokenLink    = errors.New("tstamp: link signature invalid")
	ErrChainGap      = errors.New("tstamp: link does not cover its predecessor")
	ErrLateRenewal   = errors.New("tstamp: scheme broke before the next renewal")
	ErrEpochOrder    = errors.New("tstamp: non-monotonic epochs")
	ErrOpeningFailed = errors.New("tstamp: commitment opening does not match data")
)

// RefMode selects how a link references the protected object.
type RefMode int

// Reference modes.
const (
	// RefHash binds the SHA-256 digest of the object (classic
	// Haber–Stornetta). Computationally hiding only.
	RefHash RefMode = iota
	// RefCommitment binds a Pedersen commitment (LINCOS).
	// Information-theoretically hiding.
	RefCommitment
)

// Link is one element of a timestamp chain.
type Link struct {
	Epoch    int
	Mode     RefMode
	Ref      []byte // digest or serialised commitment
	PrevHash [sha256.Size]byte
	Scheme   sig.Scheme
	Public   []byte
	Sig      []byte
}

// digestInput serialises the signed surface of a link.
func (l *Link) digestInput() []byte {
	buf := make([]byte, 0, 64+len(l.Ref)+len(l.Public))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(l.Epoch))
	buf = append(buf, e[:]...)
	buf = append(buf, byte(l.Mode))
	var lr [4]byte
	binary.BigEndian.PutUint32(lr[:], uint32(len(l.Ref)))
	buf = append(buf, lr[:]...)
	buf = append(buf, l.Ref...)
	buf = append(buf, l.PrevHash[:]...)
	buf = append(buf, []byte(l.Scheme)...)
	buf = append(buf, l.Public...)
	return buf
}

// hash hashes the full link including its signature, for chaining.
func (l *Link) hash() [sha256.Size]byte {
	h := sha256.New()
	h.Write(l.digestInput())
	h.Write(l.Sig)
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// committedBytes is how much of the object's SHA-256 digest commitment
// mode embeds as the Pedersen scalar: 224 bits keeps it below the
// subgroup order q of every supported group (group.Test() has a 255-bit
// q), so m mod q loses nothing. Digest bytes 28..31 are covered by the
// opening memo, not by the commitment.
const committedBytes = 28

// Chain is a timestamp chain for one object.
type Chain struct {
	Mode  RefMode
	Links []*Link
	// Opening is retained by the data owner in commitment mode; it is NOT
	// part of the public chain.
	Opening *commit.PedersenOpening
	ped     *commit.Pedersen
	groupID string // GroupID of an unmarshalled chain, which has no ped
	// memo records that NewFromDigest computed Links[0].Ref from Opening
	// for digest, so a read can skip recomputing g^M·h^R. It vouches only
	// for the values bind was hashed over (see binding). Written once at
	// construction: readers sharing a chain need no synchronisation.
	memo struct{ digest, bind [sha256.Size]byte }
}

// memoField bounds Ref and R in binding's stack buffer (4096-bit groups).
const memoField = 512

// binding hashes len(Ref) ‖ Ref ‖ M (32 bytes) ‖ R as the exported fields
// hold them now. ok is false for values no construction produces, which
// sends VerifyDigest to the full opening check.
func (c *Chain) binding() (sum [sha256.Size]byte, ok bool) {
	ref, m, r := c.Links[0].Ref, c.Opening.M, c.Opening.R
	if m == nil || r == nil || m.Sign() < 0 || r.Sign() < 0 ||
		len(ref) > memoField || m.BitLen() > 256 || r.BitLen() > 8*memoField {
		return sum, false
	}
	var buf [2 + memoField + 32 + memoField]byte
	binary.BigEndian.PutUint16(buf[:], uint16(len(ref)))
	n := 2 + copy(buf[2:], ref)
	m.FillBytes(buf[n : n+32])
	n += 32
	end := n + (r.BitLen()+7)/8
	r.FillBytes(buf[n:end])
	return sha256.Sum256(buf[:end]), true
}

// NewFromDigest starts a chain over data known only by its SHA-256
// digest, at the given epoch, signed with scheme. Both reference modes
// bind the object through its digest (RefHash directly, RefCommitment as
// the committed scalar in grp; nil selects group.Default()), so a writer
// that hashed the object incrementally while dispersing it never needs
// the whole plaintext in memory to open its chain, and the commitment
// stays hiding for an object of any size.
func NewFromDigest(digest [sha256.Size]byte, mode RefMode, scheme sig.Scheme, epoch int, grp *group.Group, rnd io.Reader) (*Chain, error) {
	c := &Chain{Mode: mode}
	var ref []byte
	switch mode {
	case RefHash:
		ref = digest[:]
	case RefCommitment:
		if grp == nil {
			grp = group.Default()
		}
		c.ped = commit.NewPedersen(grp)
		m := new(big.Int).SetBytes(digest[:committedBytes])
		pc, op, err := c.ped.Commit(m, rnd)
		if err != nil {
			return nil, err
		}
		c.Opening = &op
		ref = pc.Bytes()
	default:
		return nil, fmt.Errorf("tstamp: unknown ref mode %d", mode)
	}
	link, err := signLink(ref, mode, [sha256.Size]byte{}, scheme, epoch, rnd)
	if err != nil {
		return nil, err
	}
	c.Links = []*Link{link}
	if mode == RefCommitment {
		// ref was computed from this opening two statements up; verifying
		// it here would be the same exponentiation a second time.
		c.memo.digest = digest
		c.memo.bind, _ = c.binding()
	}
	return c, nil
}

func signLink(ref []byte, mode RefMode, prev [sha256.Size]byte, scheme sig.Scheme, epoch int, rnd io.Reader) (*Link, error) {
	signer, err := sig.Get(scheme)
	if err != nil {
		return nil, err
	}
	kp, err := signer.Generate(rnd)
	if err != nil {
		return nil, err
	}
	l := &Link{Epoch: epoch, Mode: mode, Ref: ref, PrevHash: prev, Scheme: scheme, Public: kp.Public}
	s, err := signer.Sign(kp, l.digestInput(), rnd)
	if err != nil {
		return nil, err
	}
	l.Sig = s
	return l, nil
}

// Renew appends a link signed with the given (presumably newer) scheme at
// the given epoch. The new link covers the previous link's full hash, so
// earlier signatures need only have been unbroken up to this moment.
func (c *Chain) Renew(scheme sig.Scheme, epoch int, rnd io.Reader) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	last := c.Links[len(c.Links)-1]
	if epoch < last.Epoch {
		return fmt.Errorf("%w: %d after %d", ErrEpochOrder, epoch, last.Epoch)
	}
	link, err := signLink(last.Ref, c.Mode, last.hash(), scheme, epoch, rnd)
	if err != nil {
		return err
	}
	c.Links = append(c.Links, link)
	return nil
}

// Verify checks the chain's integrity as of epoch `now` under the given
// break schedule. The rule per link k: its signature must verify, it must
// cover link k−1's hash, epochs must be monotone, and its scheme must
// have remained unbroken until link k+1 was created (or until `now` for
// the final link). A scheme that broke *after* its successor link exists
// does no damage — that is the whole point of renewal.
func (c *Chain) Verify(now int, breaks sig.BreakSchedule) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	var prevHash [sha256.Size]byte
	prevEpoch := -1 << 62
	for k, l := range c.Links {
		if l.Epoch < prevEpoch {
			return fmt.Errorf("%w: link %d", ErrEpochOrder, k)
		}
		if l.PrevHash != prevHash {
			return fmt.Errorf("%w: link %d", ErrChainGap, k)
		}
		signer, err := sig.Get(l.Scheme)
		if err != nil {
			return err
		}
		if err := signer.Verify(l.Public, l.digestInput(), l.Sig); err != nil {
			return fmt.Errorf("%w: link %d (%s): %v", ErrBrokenLink, k, l.Scheme, err)
		}
		// The scheme must have survived until the next link's epoch.
		horizon := now
		if k+1 < len(c.Links) {
			horizon = c.Links[k+1].Epoch
		}
		if breaks.BrokenAt(l.Scheme, horizon) {
			// Broken at or before the horizon: was it broken when the
			// successor was created (or now, for the head)? If the break
			// epoch is <= horizon, the guarantee fails.
			return fmt.Errorf("%w: link %d scheme %s broke at epoch %d, horizon %d",
				ErrLateRenewal, k, l.Scheme, breaks[l.Scheme], horizon)
		}
		prevHash = l.hash()
		prevEpoch = l.Epoch
	}
	return nil
}

// VerifyData checks that the chain actually vouches for the given data:
// in hash mode by digest comparison, in commitment mode against the
// retained opening (see VerifyDigest).
func (c *Chain) VerifyData(data []byte) error {
	return c.VerifyDigest(sha256.Sum256(data))
}

// VerifyDigest is VerifyData for callers that hashed the object
// incrementally (streaming reads): the chain binds the digest, so the
// check never needs the whole plaintext at once.
//
// This is the retrieval-path check. In commitment mode the digest must
// equal, in all 32 bytes, the one the chain was opened over; then, if
// commitment and opening are still the values NewFromDigest computed
// from each other, nothing is left to prove and no exponentiation
// runs. If any of them was changed through the exported fields, the
// opening is re-verified in full, exactly as VerifyOpening does.
func (c *Chain) VerifyDigest(digest [sha256.Size]byte) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	switch c.Mode {
	case RefHash:
		if string(digest[:]) != string(c.Links[0].Ref) {
			return ErrOpeningFailed
		}
		return nil
	case RefCommitment:
		if c.Opening == nil || c.ped == nil {
			return fmt.Errorf("%w: opening not held", ErrOpeningFailed)
		}
		if subtle.ConstantTimeCompare(digest[:], c.memo.digest[:]) != 1 {
			return ErrOpeningFailed
		}
		if bind, ok := c.binding(); ok && bind == c.memo.bind {
			return nil
		}
		if c.Opening.M == nil || new(big.Int).SetBytes(digest[:committedBytes]).Cmp(c.Opening.M) != 0 {
			return ErrOpeningFailed
		}
		return c.VerifyOpening()
	default:
		return fmt.Errorf("tstamp: unknown ref mode %d", c.Mode)
	}
}

// VerifyOpening is the evidence-path check: it recomputes g^M·h^R from
// the retained opening and compares it with the commitment in the first
// link, whatever VerifyDigest may have memoised. Renewal audits, scrub
// repairs and evidence export call it; a read does not. In hash mode
// there is no opening and it returns nil.
func (c *Chain) VerifyOpening() error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	if c.Mode != RefCommitment {
		return nil
	}
	if c.Opening == nil || c.ped == nil {
		return fmt.Errorf("%w: opening not held", ErrOpeningFailed)
	}
	pc := commit.PedersenCommitmentFromBytes(c.Links[0].Ref)
	if err := c.ped.Verify(pc, *c.Opening); err != nil {
		return fmt.Errorf("%w: %v", ErrOpeningFailed, err)
	}
	return nil
}

// GroupID names the Pedersen group (group.ID) of a commitment-mode chain;
// it is empty in hash mode and on a chain unmarshalled from version 1.
func (c *Chain) GroupID() string {
	if c.ped != nil {
		return c.ped.G.ID()
	}
	return c.groupID
}

// Len returns the number of links.
func (c *Chain) Len() int { return len(c.Links) }
