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
// opening stays with the data owner. When an object whose bytes were
// public moves to an encoding that hides them, Upgrade hands its hash
// chain over to a commitment chain without publishing the digest again.
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
	return l.appendSigned(make([]byte, 0, 64+len(l.Ref)+len(l.Public)))
}

// appendSigned appends the signed surface of a link to buf.
func (l *Link) appendSigned(buf []byte) []byte {
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

// hash hashes the full link including its signature, for chaining. A
// link of up to linkStack bytes is serialised on the stack, so the read
// path of an upgraded chain, which hashes its prior's head, allocates
// nothing.
func (l *Link) hash() [sha256.Size]byte {
	var stack [linkStack]byte
	return sha256.Sum256(append(l.appendSigned(stack[:0]), l.Sig...))
}

// linkStack covers an Ed25519 or ECDSA link over a 2048-bit commitment.
const linkStack = 1024

// committedBytes is how much of the object's SHA-256 digest commitment
// mode embeds as the Pedersen scalar: 224 bits keeps it below the
// subgroup order q of every supported group (group.Test() has a 255-bit
// q), so m mod q loses nothing. Digest bytes 28..31 are covered by the
// opening memo, not by the commitment.
const committedBytes = 28

// upgradeDomain separates the scalar an Upgrade commits to from every
// other SHA-256 of a digest.
const upgradeDomain = "securearchive/tstamp/upgrade/v1"

// Chain is a timestamp chain for one object.
type Chain struct {
	Mode  RefMode
	Links []*Link
	// Opening is retained by the data owner in commitment mode; it is NOT
	// part of the public chain.
	Opening *commit.PedersenOpening
	// Prior is the hash-mode chain that Upgrade took this one over from,
	// or nil. Like Opening it is owner-held and never marshalled: its
	// first link is the object's digest, which is what the upgrade hides.
	Prior   *Chain
	ped     *commit.Pedersen
	groupID string // GroupID of an unmarshalled chain, which has no ped
	// memo records that the chain's constructor computed Links[0].Ref
	// from Opening for digest, so a read can skip recomputing g^M·h^R. It
	// vouches only for the values bind was hashed over (see binding).
	// Written once at construction: readers sharing a chain need no
	// synchronisation.
	memo struct{ digest, bind [sha256.Size]byte }
}

// memoField bounds Ref and R in binding's stack buffer (4096-bit groups).
const memoField = 512

// binding hashes len(Ref) ‖ Ref ‖ M (32 bytes) ‖ R, and on an upgraded
// chain the hash of Prior's head link, as the exported fields hold them
// now. ok is false for values no construction produces, which sends
// VerifyDigest to the full opening check.
func (c *Chain) binding() (sum [sha256.Size]byte, ok bool) {
	ref, m, r := c.Links[0].Ref, c.Opening.M, c.Opening.R
	if m == nil || r == nil || m.Sign() < 0 || r.Sign() < 0 ||
		len(ref) > memoField || m.BitLen() > 256 || r.BitLen() > 8*memoField {
		return sum, false
	}
	var buf [2 + memoField + 32 + memoField + sha256.Size]byte
	binary.BigEndian.PutUint16(buf[:], uint16(len(ref)))
	n := 2 + copy(buf[2:], ref)
	m.FillBytes(buf[n : n+32])
	n += 32
	end := n + (r.BitLen()+7)/8
	r.FillBytes(buf[n:end])
	if c.Prior != nil {
		head, ok := c.Prior.head()
		if !ok {
			return sum, false
		}
		end += copy(buf[end:], head[:])
	}
	return sha256.Sum256(buf[:end]), true
}

// head is the hash of the chain's last link; ok is false on an empty
// chain.
func (c *Chain) head() (h [sha256.Size]byte, ok bool) {
	if len(c.Links) == 0 {
		return h, false
	}
	return c.Links[len(c.Links)-1].hash(), true
}

// scalar is what a commitment-mode chain's first link commits to for an
// object with this digest: its first committedBytes, or, on an upgraded
// chain, the first committedBytes of a domain-separated SHA-256 of the
// digest and Prior's head-link hash. ok is false when Prior is empty.
func (c *Chain) scalar(digest [sha256.Size]byte) (m *big.Int, ok bool) {
	if c.Prior == nil {
		return new(big.Int).SetBytes(digest[:committedBytes]), true
	}
	head, ok := c.Prior.head()
	if !ok {
		return nil, false
	}
	var buf [len(upgradeDomain) + 2*sha256.Size]byte
	n := copy(buf[:], upgradeDomain)
	n += copy(buf[n:], digest[:])
	copy(buf[n:], head[:])
	sum := sha256.Sum256(buf[:])
	return new(big.Int).SetBytes(sum[:committedBytes]), true
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
	if err := c.open(digest, scheme, epoch, grp, rnd); err != nil {
		return nil, err
	}
	return c, nil
}

// Upgrade takes c, a hash-mode chain over digest, over into a new
// commitment-mode chain in grp (nil selects group.Default()), for an
// object that moves to an encoding that hides its bytes: c's first link
// publishes the digest, which lets anyone holding the chain confirm a
// guess of the plaintext. The new chain's first link, signed at epoch
// with c's head scheme, commits to a domain-separated SHA-256 of the
// digest and of c's head link, so it covers c without revealing it. c
// becomes the new chain's Prior: owner-held, never marshalled, and
// checked by Verify up to the upgrade's epoch. c itself is unchanged.
func (c *Chain) Upgrade(digest [sha256.Size]byte, epoch int, grp *group.Group, rnd io.Reader) (*Chain, error) {
	if c.Mode != RefHash {
		return nil, fmt.Errorf("tstamp: upgrade of a chain in mode %d, want hash mode", c.Mode)
	}
	if err := c.VerifyDigest(digest); err != nil {
		return nil, err
	}
	last := c.Links[len(c.Links)-1]
	if epoch < last.Epoch {
		return nil, fmt.Errorf("%w: %d after %d", ErrEpochOrder, epoch, last.Epoch)
	}
	u := &Chain{Mode: RefCommitment, Prior: c}
	if err := u.open(digest, last.Scheme, epoch, grp, rnd); err != nil {
		return nil, err
	}
	return u, nil
}

// open signs c's first link, binding digest in c.Mode.
func (c *Chain) open(digest [sha256.Size]byte, scheme sig.Scheme, epoch int, grp *group.Group, rnd io.Reader) error {
	var ref []byte
	switch c.Mode {
	case RefHash:
		ref = digest[:]
	case RefCommitment:
		if grp == nil {
			grp = group.Default()
		}
		c.ped = commit.NewPedersen(grp)
		m, ok := c.scalar(digest)
		if !ok {
			return ErrEmptyChain
		}
		pc, op, err := c.ped.Commit(m, rnd)
		if err != nil {
			return err
		}
		c.Opening = &op
		ref = pc.Bytes()
	default:
		return fmt.Errorf("tstamp: unknown ref mode %d", c.Mode)
	}
	link, err := signLink(ref, c.Mode, [sha256.Size]byte{}, scheme, epoch, rnd)
	if err != nil {
		return err
	}
	c.Links = []*Link{link}
	if c.Mode == RefCommitment {
		// ref was computed from this opening a few statements up;
		// verifying it here would be the same exponentiation a second time.
		c.memo.digest = digest
		c.memo.bind, _ = c.binding()
	}
	return nil
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
// does no damage — that is the whole point of renewal. A held Prior is
// checked by the same rule with the upgrade link's epoch as its `now`:
// the upgrade is the renewal that took over from its head.
func (c *Chain) Verify(now int, breaks sig.BreakSchedule) error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	if p := c.Prior; p != nil {
		if err := p.Verify(c.Links[0].Epoch, breaks); err != nil {
			return fmt.Errorf("tstamp: prior chain: %w", err)
		}
		if last := p.Links[len(p.Links)-1].Epoch; last > c.Links[0].Epoch {
			return fmt.Errorf("%w: prior head at %d, upgrade at %d", ErrEpochOrder, last, c.Links[0].Epoch)
		}
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
// commitment, opening and (on an upgraded chain) Prior's head link are
// still the values the chain was built from, nothing is left to prove
// and no exponentiation runs. If any of them was changed through the
// exported fields, the committed scalar is recomputed from the digest
// and the held Prior, and the opening is re-verified in full, exactly as
// VerifyOpening does.
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
		if m, ok := c.scalar(digest); !ok || c.Opening.M == nil || m.Cmp(c.Opening.M) != 0 {
			return ErrOpeningFailed
		}
		return c.VerifyOpening()
	default:
		return fmt.Errorf("tstamp: unknown ref mode %d", c.Mode)
	}
}

// VerifyOpening is the evidence-path check: it recomputes g^M·h^R from
// the retained opening and compares it with the commitment in the first
// link, whatever VerifyDigest may have memoised. Scrub repairs and
// evidence export call it; a read does not. In hash mode there is no
// opening: the reference is the digest itself, and it checks instead that
// link 0's signature still covers it, so a reference changed after
// signing fails here as a commitment that no longer opens does.
func (c *Chain) VerifyOpening() error {
	if len(c.Links) == 0 {
		return ErrEmptyChain
	}
	if c.Mode == RefHash {
		l := c.Links[0]
		signer, err := sig.Get(l.Scheme)
		if err != nil {
			return err
		}
		if err := signer.Verify(l.Public, l.digestInput(), l.Sig); err != nil {
			return fmt.Errorf("%w: link 0 no longer signs its reference: %v", ErrOpeningFailed, err)
		}
		return nil
	}
	if c.Mode != RefCommitment {
		return fmt.Errorf("tstamp: unknown ref mode %d", c.Mode)
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
