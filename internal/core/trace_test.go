package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
	"securearchive/internal/sig"
)

// tracedVault builds an 8-node vault over an isolated registry with
// tracing enabled and an in-memory exporter capturing every trace.
func tracedVault(t *testing.T, enc Encoding) (*Vault, *cluster.Cluster, *trace.Tracer, *trace.Mem) {
	t.Helper()
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	tr := trace.New(reg)
	tr.SetEnabled(true)
	mem := &trace.Mem{}
	tr.AddExporter(mem)
	v, err := NewVault(c, enc, WithRegistry(reg), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	return v, c, tr, mem
}

// lastTrace returns the most recent completed trace rooted at name.
func lastTrace(t *testing.T, mem *trace.Mem, name string) *trace.Trace {
	t.Helper()
	traces := mem.Traces()
	for i := len(traces) - 1; i >= 0; i-- {
		if traces[i].Root == name {
			return traces[i]
		}
	}
	t.Fatalf("no completed trace rooted at %q (have %d traces)", name, len(traces))
	return nil
}

// Acceptance: a degraded Get under a fault plan produces one completed
// trace with vault → cluster.fetch → cluster.probe nesting (≥3 levels),
// a typed node.down event for every offline node it probed, and decode
// and verify stages attributed as children of the root.
func TestDegradedGetTrace(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, c, _, mem := tracedVault(t, enc)
	data := []byte("trace the degraded read end to end")
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	n, min := enc.Shards()
	down := n - min // 4 offline still leaves exactly the decode minimum
	for i := 0; i < down; i++ {
		c.SetOnline(i, false)
	}
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded get: %v", err)
	}

	tc := lastTrace(t, mem, "vault.get")
	if tc.Depth() < 3 {
		t.Fatalf("trace depth = %d, want >= 3:\n%s", tc.Depth(), trace.Timeline(tc))
	}
	rs := tc.RootSpan()
	if rs == nil || rs.Err != "" {
		t.Fatalf("root span = %+v", rs)
	}
	if a, ok := rs.Attr("object"); !ok || a.Str != "obj" {
		t.Fatalf("root object attr = %+v", a)
	}

	// Exactly one node.down event per offline node, each attributed.
	if gotEv := tc.EventCount("node.down"); gotEv != down {
		t.Fatalf("node.down events = %d, want %d:\n%s", gotEv, down, trace.Timeline(tc))
	}
	seen := map[int64]bool{}
	for _, s := range tc.Spans {
		if s.Name != "cluster.probe" {
			continue
		}
		for _, e := range s.Events {
			if e.Name != "node.down" {
				continue
			}
			for _, a := range e.Attrs {
				if a.Key == "node" {
					if seen[a.Num] {
						t.Fatalf("node %d reported down twice", a.Num)
					}
					if a.Num < 0 || a.Num >= int64(down) {
						t.Fatalf("node.down on node %d, offline set is [0,%d)", a.Num, down)
					}
					seen[a.Num] = true
				}
			}
		}
	}
	if len(seen) != down {
		t.Fatalf("distinct down nodes = %d, want %d", len(seen), down)
	}

	// The fetch span sits under the root with the probe spans under it,
	// and the decode/verify stages are siblings of the fetch.
	fetch := tc.Children(rs.SpanID)
	names := map[string]bool{}
	for _, s := range fetch {
		names[s.Name] = true
	}
	for _, want := range []string{"cluster.fetch", "vault.decode", "vault.verify"} {
		if !names[want] {
			t.Fatalf("root children %v lack %q:\n%s", names, want, trace.Timeline(tc))
		}
	}
	for _, s := range fetch {
		if s.Name == "cluster.fetch" {
			if probes := tc.Children(s.SpanID); len(probes) < min {
				t.Fatalf("probe spans = %d, want >= %d", len(probes), min)
			}
			if a, ok := s.Attr("fetched"); !ok || a.Num != int64(min) {
				t.Fatalf("fetch fetched attr = %+v", a)
			}
		}
	}
}

// An insufficient read (below the decode threshold) must complete its
// trace too: root span carrying the DegradedError, a read.insufficient
// event, and a stripe.short event on the fetch span.
func TestInsufficientGetTrace(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, c, _, mem := tracedVault(t, enc)
	if err := v.Put(context.Background(), "obj", []byte("short stripe")); err != nil {
		t.Fatal(err)
	}
	n, min := enc.Shards()
	for i := 0; i < n-min+1; i++ {
		c.SetOnline(i, false)
	}
	if _, err := v.Get(context.Background(), "obj"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("get = %v, want ErrDegraded", err)
	}
	tc := lastTrace(t, mem, "vault.get")
	rs := tc.RootSpan()
	if rs == nil || rs.Err == "" {
		t.Fatalf("root span should carry the degraded error: %+v", rs)
	}
	if tc.EventCount("read.insufficient") != 1 || tc.EventCount("stripe.short") != 1 {
		t.Fatalf("insufficient read lacks its events:\n%s", trace.Timeline(tc))
	}
}

// A read that discards a rotted shard must attribute it: shard.discarded
// on the probe, read.dirty on the root, and the probe span erroring with
// the validation failure.
func TestRotDiscardTrace(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, c, _, mem := tracedVault(t, enc)
	if err := v.Put(context.Background(), "obj", []byte("rot is routed around but recorded")); err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 5, Nodes: map[int]cluster.NodeFaults{
		2: {CorruptProb: 1.0},
	}})
	if _, err := c.GetCtx(context.Background(), 2, cluster.ShardKey{Object: "obj", Index: 2}); err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(nil)
	if _, err := v.Get(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	tc := lastTrace(t, mem, "vault.get")
	if tc.EventCount("shard.discarded") != 1 || tc.EventCount("read.dirty") != 1 {
		t.Fatalf("discard events missing:\n%s", trace.Timeline(tc))
	}
}

// Scrub traces nest the audit fetch and the repair pipeline, and a
// repair is marked with its scrub.repaired event. JSONL round-trips the
// whole journal.
func TestScrubTraceAndJournalRoundTrip(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, c, tr, mem := tracedVault(t, enc)
	if err := v.Put(context.Background(), "obj", []byte("scrub repairs and the journal remembers")); err != nil {
		t.Fatal(err)
	}
	// Attach the journal after the Put: it captures only the scrub.
	var journal bytes.Buffer
	jl := trace.NewJSONL(&journal)
	tr.AddExporter(jl)
	if err := c.Delete(3, cluster.ShardKey{Object: "obj", Index: 3}); err != nil {
		t.Fatal(err)
	}
	rep, err := v.Scrub(context.Background(), "obj")
	if err != nil || !rep.Repaired {
		t.Fatalf("scrub: rep=%+v err=%v", rep, err)
	}
	tc := lastTrace(t, mem, "vault.scrub")
	if tc.Depth() < 3 {
		t.Fatalf("scrub trace depth = %d, want >= 3:\n%s", tc.Depth(), trace.Timeline(tc))
	}
	if tc.EventCount("scrub.repaired") != 1 || tc.EventCount("stage.committed") != 1 {
		t.Fatalf("scrub events missing:\n%s", trace.Timeline(tc))
	}

	// The journal was attached after the Put, so it holds only the scrub
	// trace — one line, matching what the in-memory exporter saw.
	var back trace.Trace
	if err := json.Unmarshal(journal.Bytes(), &back); err != nil {
		t.Fatalf("journal is not one trace: %v\n%s", err, journal.Bytes())
	}
	if back.ID != tc.ID || len(back.Spans) != len(tc.Spans) {
		t.Fatalf("journal round trip diverged: %v/%d spans, want %v/%d", back.ID, len(back.Spans), tc.ID, len(tc.Spans))
	}
}

// Puts trace their staging pipeline: encode and cluster.stage under the
// root, with the commit recorded.
func TestPutTrace(t *testing.T) {
	enc := Erasure{K: 4, N: 8}
	v, _, _, mem := tracedVault(t, enc)
	if err := v.Put(context.Background(), "obj", []byte("writes trace too")); err != nil {
		t.Fatal(err)
	}
	tc := lastTrace(t, mem, "vault.put")
	rs := tc.RootSpan()
	names := map[string]bool{}
	for _, s := range tc.Children(rs.SpanID) {
		names[s.Name] = true
	}
	if !names["vault.encode"] || !names["cluster.stage"] {
		t.Fatalf("put children = %v:\n%s", names, trace.Timeline(tc))
	}
	if tc.EventCount("stage.committed") != 1 {
		t.Fatalf("stage.committed events:\n%s", trace.Timeline(tc))
	}
}

// Spans name the encoding the object is stored under, not the vault's
// current one: a Get of an object written under erasure coding says so
// while the vault writes secret sharing, the renewal that moves it names
// its target and where it moved from, and a Delete names the encoding
// the renewal wrote. Both renew modes record under vault.renew.
func TestSpansNameTheObjectsEncoding(t *testing.T) {
	v, _, _, mem := tracedVault(t, Erasure{K: 4, N: 8})
	ctx := context.Background()
	if err := v.Put(ctx, "obj", []byte("written under erasure coding")); err != nil {
		t.Fatal(err)
	}
	v.Encoding = SecretSharing{T: 4, N: 8}
	attr := func(root, key, want string) {
		t.Helper()
		tc := lastTrace(t, mem, root)
		if a, ok := tc.RootSpan().Attr(key); !ok || a.Str != want {
			t.Fatalf("%s %s = %+v, want %q:\n%s", root, key, a, want, trace.Timeline(tc))
		}
	}
	if _, err := v.Get(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	attr("vault.get", "encoding", "Erasure Coding")
	if err := v.RenewIntegrity(ctx, "obj", sig.ECDSAP256); err != nil {
		t.Fatal(err)
	}
	attr("vault.renew", "mode", "integrity")
	if err := v.RenewShares(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	attr("vault.renew", "mode", "shares")
	attr("vault.renew", "encoding", "Secret Sharing")
	attr("vault.renew", "from", "Erasure Coding")
	v.Encoding = Replication{N: 8}
	if err := v.DeleteContext(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	attr("vault.delete", "encoding", "Secret Sharing")
}
