package tstamp

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"testing"

	"securearchive/internal/group"
	"securearchive/internal/sig"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	c := newHashChain(t)
	if err := c.Renew(sig.ECDSAP256, 10, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(sig.RSAPSS2048, 20, rand.Reader); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 3 || rt.Mode != RefHash {
		t.Fatalf("round trip shape: len=%d mode=%d", rt.Len(), rt.Mode)
	}
	// The deserialised chain verifies, including break semantics.
	if err := rt.Verify(100, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(100, sig.BreakSchedule{sig.Ed25519: 5}); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("deserialised chain lost break semantics: %v", err)
	}
	// And can be renewed further.
	if err := rt.Renew(sig.Ed25519, 30, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(100, nil); err != nil {
		t.Fatal(err)
	}
	// Data verification still works in hash mode (opening-free).
	if err := rt.VerifyData(doc); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalTamperDetected(t *testing.T) {
	c := newHashChain(t)
	c.Renew(sig.ECDSAP256, 10, rand.Reader)
	blob, _ := c.Marshal()
	// Flip one byte somewhere in the middle of the payload.
	blob2 := append([]byte(nil), blob...)
	for i := len(blob2) / 2; i < len(blob2); i++ {
		if blob2[i] >= 'a' && blob2[i] < 'z' {
			blob2[i]++
			break
		}
	}
	rt, err := Unmarshal(blob2)
	if err != nil {
		return // malformed JSON/base64: also fine
	}
	if err := rt.Verify(100, nil); err == nil {
		t.Fatal("tampered serialised chain verified")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("garbage: %v", err)
	}
	if _, err := Unmarshal([]byte(`{"version":99,"links":[{}]}`)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := Unmarshal([]byte(`{"version":1,"links":[]}`)); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := Unmarshal([]byte(`{"version":1,"links":[{"prev_hash":"AAE="}]}`)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("short hash: %v", err)
	}
}

// TestMarshalNamesCommitmentGroup pins wire version 2: commitment-mode
// evidence carries the ID of the group its commitment is over, through a
// round trip and a renewal by the party that holds only the public part;
// hash-mode evidence carries none.
func TestMarshalNamesCommitmentGroup(t *testing.T) {
	// A group that is not the production one: its generators swapped.
	d := group.Default()
	other := &group.Group{P: d.P, Q: d.Q, G: d.H, H: d.G}
	c, err := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, other, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var w wireChain
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	if w.Version != 2 || w.Group != other.ID() || len(w.Group) != 32 {
		t.Fatalf("marshalled version %d group %q, want 2 and %q", w.Version, w.Group, other.ID())
	}
	rt, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The mismatch a verifier must be able to see: evidence committed on
	// one group is not evidence on the production group.
	if rt.GroupID() != other.ID() || rt.GroupID() == d.ID() {
		t.Fatalf("unmarshalled chain names group %q", rt.GroupID())
	}
	if err := rt.Renew(sig.ECDSAP256, 5, rand.Reader); err != nil {
		t.Fatal(err)
	}
	blob2, err := rt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if rt2, err := Unmarshal(blob2); err != nil || rt2.GroupID() != other.ID() || rt2.Len() != 2 {
		t.Fatalf("group lost across renew and re-marshal: %v", err)
	}

	hblob, err := newHashChain(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var hw wireChain
	if err := json.Unmarshal(hblob, &hw); err != nil || hw.Group != "" {
		t.Fatalf("hash-mode evidence names group %q (%v)", hw.Group, err)
	}
}

// TestUnmarshalVersion1 pins backward compatibility: evidence written
// before the group field (version 1, no field) still unmarshals, and its
// public part verifies and renews as before; it names no group.
func TestUnmarshalVersion1(t *testing.T) {
	c, err := NewFromDigest(sha256.Sum256(doc), RefCommitment, sig.Ed25519, 0, group.Default(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(sig.ECDSAP256, 10, rand.Reader); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]json.RawMessage
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	w["version"] = json.RawMessage("1")
	delete(w, "group")
	v1, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Unmarshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.GroupID() != "" || rt.Mode != RefCommitment || rt.Len() != 2 {
		t.Fatalf("version 1 chain: group %q mode %d len %d", rt.GroupID(), rt.Mode, rt.Len())
	}
	if err := rt.Verify(100, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Verify(100, sig.BreakSchedule{sig.Ed25519: 5}); !errors.Is(err, ErrLateRenewal) {
		t.Fatalf("version 1 chain lost break semantics: %v", err)
	}
	if err := rt.Renew(sig.Ed25519, 20, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// Renewed and marshalled again it still names no group, and still reads.
	blob2, err := rt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if rt2, err := Unmarshal(blob2); err != nil || rt2.GroupID() != "" || rt2.Len() != 3 {
		t.Fatalf("version 1 chain after renew and re-marshal: %v", err)
	}
}

func TestMarshalEmptyChain(t *testing.T) {
	var c Chain
	if _, err := c.Marshal(); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("empty marshal: %v", err)
	}
}
