package trace

import (
	"context"
	"testing"

	"securearchive/internal/obs"
)

// hotPath is the span shape of one degraded vault Get: a root with
// attrs, a fetch child, a probe grandchild with an event — what every
// Get pays when tracing is off.
func hotPath(tr *Tracer, ctx context.Context) {
	gctx, sp := tr.Start(ctx, "vault.get",
		Str("object", "obj-0042"), Str("encoding", "shamir"), Int("bytes", 65536))
	fctx, fsp := Child(gctx, "cluster.fetch", Int("n", 8), Int("want", 4))
	_, psp := Child(fctx, "cluster.probe", Int("node", 3), Int("shard", 3))
	psp.Event("node.down", Int("node", 3))
	psp.End(nil)
	fsp.SetAttrs(Int("fetched", 4))
	fsp.End(nil)
	sp.End(nil)
}

// TestFlatModeZeroAllocsWarm is the enforcement behind the "disabled
// tracing costs nothing but its histograms" contract: tracing off (the
// default production configuration), after the first op resolves each
// name's histogram pair, the whole span shape of a Get allocates
// nothing.
func TestFlatModeZeroAllocsWarm(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg)
	ctx := context.Background()
	hotPath(tr, ctx) // warm the histogram cache
	if allocs := testing.AllocsPerRun(1000, func() { hotPath(tr, ctx) }); allocs != 0 {
		t.Fatalf("flat-mode trace path allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkSpanFlat measures the default production configuration:
// tracing off, flat histograms on (two clock reads + atomic adds per
// root span; 0 allocs/op once warm). It is the -benchmem witness:
//
//	go test -run '^$' -bench 'SpanFlat|SpanEnabled' -benchmem ./internal/obs/trace/
func BenchmarkSpanFlat(b *testing.B) {
	reg := obs.NewRegistry()
	tr := New(reg)
	ctx := context.Background()
	hotPath(tr, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotPath(tr, ctx)
	}
}

// BenchmarkSpanEnabled prices full tracing for the same span shape.
func BenchmarkSpanEnabled(b *testing.B) {
	reg := obs.NewRegistry()
	tr := New(reg)
	tr.SetEnabled(true)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hotPath(tr, ctx)
	}
}
