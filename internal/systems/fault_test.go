package systems

import (
	"bytes"
	"crypto/rand"
	"testing"

	"securearchive/internal/cluster"
)

// The survivable systems' read paths share the cluster's degraded
// k-of-n fetch: with transient faults everywhere and n−t providers
// offline, retrieval must still succeed.
func TestRetrieveDegradedUnderFaultPlan(t *testing.T) {
	c := cluster.New(6, nil)
	pots, err := NewPOTSHARDS(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	vsr, err := NewVSRArchive(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	pasis, err := NewPASIS(c, PASISErasure, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := NewPASIS(c, PASISReplication, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("system-layer degraded read payload")
	refs := map[string]*Ref{}
	for name, a := range map[string]Archive{"pots": pots, "vsr": vsr, "pasis": pasis, "repl": repl} {
		ref, err := a.Store("obj-"+name, data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref
	}
	// Nodes 0–2 offline, survivors 30% flaky: exactly t=3 providers left.
	plan := &cluster.FaultPlan{
		Seed:    13,
		Default: cluster.NodeFaults{TransientProb: 0.3},
		Nodes: map[int]cluster.NodeFaults{
			0: {Offline: []cluster.Window{{From: 0, To: 100}}},
			1: {Offline: []cluster.Window{{From: 0, To: 100}}},
			2: {Offline: []cluster.Window{{From: 0, To: 100}}},
		},
	}
	c.SetFaultPlan(plan)
	for name, a := range map[string]Archive{"pots": pots, "vsr": vsr, "pasis": pasis, "repl": repl} {
		got, err := a.Retrieve(refs[name])
		if err != nil {
			t.Fatalf("%s retrieve under faults: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s returned wrong bytes under faults", name)
		}
	}
}

// VSR's shares are checked against their digests inside the vault's
// degraded fetch: a provider serving rotted bytes is skipped and another
// provider used instead.
func TestVSRRetrieveSkipsRottedProvider(t *testing.T) {
	c := cluster.New(6, nil)
	vsr, err := NewVSRArchive(c, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("commitments catch rot during the read")
	ref, err := vsr.Store("obj", data, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 serves bit-rotted shares from now on.
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 3, Nodes: map[int]cluster.NodeFaults{
		1: {CorruptProb: 1.0},
	}})
	got, err := vsr.Retrieve(ref)
	if err != nil {
		t.Fatalf("retrieve with rotted provider: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rotted share reached the combiner")
	}
}
