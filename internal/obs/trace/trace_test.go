package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securearchive/internal/obs"
)

func newEnabled(t *testing.T) (*Tracer, *Mem) {
	t.Helper()
	tr := New(obs.NewRegistry())
	tr.SetEnabled(true)
	mem := &Mem{}
	tr.AddExporter(mem)
	return tr, mem
}

func TestSpanTree(t *testing.T) {
	tr, mem := newEnabled(t)
	ctx, root := tr.Start(context.Background(), "vault.get",
		Str("object", "o1"), Str("encoding", "shamir"))
	fctx, fetch := Child(ctx, "cluster.fetch", Int("n", 8))
	_, probe := Child(fctx, "cluster.probe", Int("node", 3))
	probe.Event("node.down", Int("node", 3))
	probe.End(errors.New("down"))
	fetch.SetAttrs(Int("fetched", 4))
	fetch.End(nil)
	root.End(nil)

	traces := mem.Traces()
	if len(traces) != 1 {
		t.Fatalf("completed traces = %d, want 1", len(traces))
	}
	tc := traces[0]
	if tc.Root != "vault.get" || len(tc.Spans) != 3 {
		t.Fatalf("trace root=%q spans=%d", tc.Root, len(tc.Spans))
	}
	rs := tc.RootSpan()
	if rs == nil || rs.SpanID != 1 || rs.Parent != 0 {
		t.Fatalf("root span = %+v", rs)
	}
	if a, ok := rs.Attr("object"); !ok || a.Str != "o1" {
		t.Fatalf("root object attr = %+v ok=%v", a, ok)
	}
	fs := tc.Children(rs.SpanID)
	if len(fs) != 1 || fs[0].Name != "cluster.fetch" {
		t.Fatalf("root children = %+v", fs)
	}
	ps := tc.Children(fs[0].SpanID)
	if len(ps) != 1 || ps[0].Name != "cluster.probe" || ps[0].Err == "" {
		t.Fatalf("fetch children = %+v", ps)
	}
	if got, ok := fs[0].Attr("fetched"); !ok || got.Num != 4 {
		t.Fatalf("SetAttrs lost: %+v ok=%v", got, ok)
	}
	if tc.EventCount("node.down") != 1 {
		t.Fatalf("node.down events = %d, want 1", tc.EventCount("node.down"))
	}
	if tc.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", tc.Depth())
	}
	if tc.ID == 0 || ps[0].TraceID != tc.ID {
		t.Fatalf("trace id not propagated: trace=%v span=%v", tc.ID, ps[0].TraceID)
	}
}

func TestHistogramBridge(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg)
	tr.SetEnabled(true)
	ctx, root := tr.Start(context.Background(), "vault.put")
	_, c := Child(ctx, "cluster.stage.put")
	c.End(nil)
	root.End(errors.New("boom"))
	snap := reg.Snapshot()
	if snap.Histograms["vault.put.err"].Count != 1 {
		t.Fatalf("vault.put.err count = %d, want 1", snap.Histograms["vault.put.err"].Count)
	}
	if snap.Histograms["cluster.stage.put.ok"].Count != 1 {
		t.Fatalf("bridge missed child span: %+v", snap.Histograms)
	}
}

func TestFlatModeWhenDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg) // tracing disabled by default
	mem := &Mem{}
	tr.AddExporter(mem)
	ctx, sp := tr.Start(context.Background(), "vault.get")
	if sp.Recording() {
		t.Fatal("disabled tracer returned a recording span")
	}
	if _, c := Child(ctx, "cluster.fetch"); c.Recording() {
		t.Fatal("flat-mode span leaked into the context")
	}
	sp.End(nil)
	// The operation's histogram still fills…
	if got := reg.Snapshot().Histograms["vault.get.ok"].Count; got != 1 {
		t.Fatalf("flat histogram count = %d, want 1", got)
	}
	// …but no trace is recorded.
	if n := len(mem.Traces()); n != 0 {
		t.Fatalf("disabled tracer completed %d traces", n)
	}
}

func TestChildJoinsAmbientTraceEvenWhenTracerDisabled(t *testing.T) {
	tr, mem := newEnabled(t)
	ctx, root := tr.Start(context.Background(), "vault.scrub")
	tr.SetEnabled(false) // flip mid-trace: already-rooted spans keep recording
	_, c := Child(ctx, "cluster.fetch")
	if !c.Recording() {
		t.Fatal("child of a recording span must record")
	}
	c.End(nil)
	root.End(nil)
	if len(mem.Traces()) != 1 || len(mem.Traces()[0].Spans) != 2 {
		t.Fatalf("traces = %+v", mem.Traces())
	}
}

func TestRingBounds(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg)
	tr.SetEnabled(true)
	const total = DefaultRingSize + 6
	for i := 0; i < total; i++ {
		_, sp := tr.Start(context.Background(), fmt.Sprintf("op%d", i))
		sp.End(nil)
	}
	recent := tr.Recent(0)
	if len(recent) != DefaultRingSize {
		t.Fatalf("ring holds %d, want %d", len(recent), DefaultRingSize)
	}
	// Oldest-first: the first six fell off.
	for i, tc := range recent {
		if want := fmt.Sprintf("op%d", 6+i); tc.Root != want {
			t.Fatalf("recent[%d] = %q, want %q", i, tc.Root, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[1].Root != fmt.Sprintf("op%d", total-1) {
		t.Fatalf("Recent(2) = %+v", got)
	}
	if tr.Completed() != total {
		t.Fatalf("completed = %d, want %d", tr.Completed(), total)
	}
}

func TestSpanAndEventBounds(t *testing.T) {
	tr, mem := newEnabled(t)
	ctx, root := tr.Start(context.Background(), "op")
	for i := 0; i < maxEventsPerSpan+10; i++ {
		root.Event("e")
	}
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, c := Child(ctx, "leaf")
		c.End(nil)
	}
	root.End(nil)
	tc := mem.Traces()[0]
	if len(tc.Spans) != maxSpansPerTrace+1 { // capped children + root
		t.Fatalf("spans = %d, want %d", len(tc.Spans), maxSpansPerTrace+1)
	}
	rs := tc.RootSpan()
	if rs == nil || len(rs.Events) != maxEventsPerSpan {
		t.Fatalf("root events = %d, want %d", len(rs.Events), maxEventsPerSpan)
	}
	if tc.Dropped != 10+10 { // 10 events + 10 spans over the caps
		t.Fatalf("dropped = %d, want 20", tc.Dropped)
	}
}

// TestConcurrentSiblings mirrors the stripe read's probe fan-out: many
// goroutines create and end sibling spans of one trace. Run under -race.
func TestConcurrentSiblings(t *testing.T) {
	tr, mem := newEnabled(t)
	ctx, root := tr.Start(context.Background(), "cluster.fetch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := Child(ctx, "cluster.probe", Int("node", w))
				sp.Event("probe.attempt", Int("i", i))
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()
	root.End(nil)
	tc := mem.Traces()[0]
	if len(tc.Spans) != 401 {
		t.Fatalf("spans = %d, want 401", len(tc.Spans))
	}
	ids := map[uint64]bool{}
	for _, s := range tc.Spans {
		if ids[s.SpanID] {
			t.Fatalf("duplicate span id %d", s.SpanID)
		}
		ids[s.SpanID] = true
	}
}

func TestTimeline(t *testing.T) {
	tr, mem := newEnabled(t)
	ctx, root := tr.Start(context.Background(), "vault.get", Str("object", "o1"))
	fctx, fetch := Child(ctx, "cluster.fetch", Int("want", 4))
	_, probe := Child(fctx, "cluster.probe", Int("node", 2))
	probe.Event("backoff.slept", Int("attempt", 1))
	probe.End(errors.New("transient"))
	fetch.End(nil)
	root.End(nil)
	out := Timeline(mem.Traces()[0])
	for _, want := range []string{
		"vault.get [object=o1]",
		"    cluster.fetch [want=4]",
		"      cluster.probe [node=2]",
		"ERR transient",
		"· backoff.slept [attempt=1]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Nesting: probe is indented deeper than fetch, fetch deeper than root.
	if strings.Index(out, "  vault.get") > strings.Index(out, "    cluster.fetch") {
		t.Fatalf("timeline order wrong:\n%s", out)
	}
}
