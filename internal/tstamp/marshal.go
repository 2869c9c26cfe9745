package tstamp

import (
	"encoding/json"
	"fmt"

	"securearchive/internal/sig"
)

// Timestamp chains are archival artifacts themselves: the evidence must
// outlive processes and machines, so the public portion of a chain has a
// stable serialised form. The owner-held commitment opening is
// deliberately NOT serialised here — it is key material, stored and
// shared by the owner's own means (e.g. a vss sharing). This package has
// no way to attach an opening to an unmarshalled chain.

// wireLink is the serialised form of one link.
type wireLink struct {
	Epoch    int     `json:"epoch"`
	Mode     RefMode `json:"mode"`
	Ref      []byte  `json:"ref"`
	PrevHash []byte  `json:"prev_hash"`
	Scheme   string  `json:"scheme"`
	Public   []byte  `json:"public"`
	Sig      []byte  `json:"sig"`
}

type wireChain struct {
	Version int        `json:"version"`
	Mode    RefMode    `json:"mode"`
	Group   string     `json:"group,omitempty"` // Chain.GroupID; version 2
	Links   []wireLink `json:"links"`
}

// wireVersion is the serialisation format version written. Version 1 had
// no group field (RFC 3526-era chains); its public part still verifies.
const wireVersion = 2

// ErrBadEncoding reports a malformed serialised chain.
var ErrBadEncoding = fmt.Errorf("tstamp: malformed chain encoding")

// Marshal serialises the chain's public portion.
func (c *Chain) Marshal() ([]byte, error) {
	if len(c.Links) == 0 {
		return nil, ErrEmptyChain
	}
	w := wireChain{Version: wireVersion, Mode: c.Mode, Group: c.GroupID()}
	for _, l := range c.Links {
		w.Links = append(w.Links, wireLink{
			Epoch:    l.Epoch,
			Mode:     l.Mode,
			Ref:      l.Ref,
			PrevHash: l.PrevHash[:],
			Scheme:   string(l.Scheme),
			Public:   l.Public,
			Sig:      l.Sig,
		})
	}
	return json.Marshal(w)
}

// Unmarshal reconstructs a chain from its serialised public portion. The
// result can Verify and Renew. In commitment mode it holds no opening,
// so VerifyData, VerifyDigest and VerifyOpening return ErrOpeningFailed
// ("opening not held"); in hash mode VerifyData works as before.
func Unmarshal(data []byte) (*Chain, error) {
	var w wireChain
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEncoding, err)
	}
	if w.Version != 1 && w.Version != wireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadEncoding, w.Version)
	}
	if len(w.Links) == 0 {
		return nil, ErrEmptyChain
	}
	c := &Chain{Mode: w.Mode, groupID: w.Group}
	for i, wl := range w.Links {
		if len(wl.PrevHash) != 32 {
			return nil, fmt.Errorf("%w: link %d prev hash", ErrBadEncoding, i)
		}
		l := &Link{
			Epoch:  wl.Epoch,
			Mode:   wl.Mode,
			Ref:    wl.Ref,
			Scheme: sig.Scheme(wl.Scheme),
			Public: wl.Public,
			Sig:    wl.Sig,
		}
		copy(l.PrevHash[:], wl.PrevHash)
		c.Links = append(c.Links, l)
	}
	return c, nil
}
