package systems

import (
	"crypto/rand"
	"errors"
	"strings"
	"testing"

	"securearchive/internal/cluster"
)

// Bugfix regression: a below-threshold stripe read must name the counts
// and the per-node causes, e.g. "insufficient shards: got 2, want 3
// (node 2: corrupt, node 3: down, node 4: down)" — not fail later inside
// the decoder with an opaque combine error.
func TestInsufficientShardsErrorText(t *testing.T) {
	c := cluster.New(8, nil)
	vsr, err := NewVSRArchive(c, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := vsr.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 serves bytes that fail their digest check; 3 and 4 are
	// down. Two verified shares remain — one short of the threshold.
	rot(t, c, cluster.ShardKey{Object: "obj", Index: 2}, 0)
	c.SetOnline(3, false)
	c.SetOnline(4, false)

	_, err = vsr.Retrieve(ref)
	if !errors.Is(err, ErrRetrieval) {
		t.Fatalf("below-threshold retrieve: %v, want ErrRetrieval", err)
	}
	msg := err.Error()
	want := "insufficient shards: got 2, want 3 (node 2: corrupt, node 3: down, node 4: down)"
	if !strings.Contains(msg, want) {
		t.Fatalf("error text %q lacks %q", msg, want)
	}
}

// The vault-backed systems (POTSHARDS, PASIS, CloudAES, AONT-RS) read
// through the vault, whose below-threshold error must attribute plain
// outages the same way, wrapped as ErrRetrieval.
func TestVaultBackedRetrieveAttribution(t *testing.T) {
	c := cluster.New(8, nil)
	pot, err := NewPOTSHARDS(c, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pot.Store("obj", payload, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 3, 4} {
		c.SetOnline(id, false)
	}
	_, err = pot.Retrieve(ref)
	if !errors.Is(err, ErrRetrieval) {
		t.Fatalf("below-threshold retrieve: %v, want ErrRetrieval", err)
	}
	msg := err.Error()
	want := "insufficient shards: got 2, want 3 (node 2: down, node 3: down, node 4: down)"
	if !strings.Contains(msg, want) {
		t.Fatalf("error text %q lacks %q", msg, want)
	}
}
