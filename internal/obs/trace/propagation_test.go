package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"securearchive/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	h := FormatTraceparent(ID(0x4fa1b2c3d4e5f607), 0x0000000000000003)
	if h != "00-00000000000000004fa1b2c3d4e5f607-0000000000000003-01" {
		t.Fatalf("format = %q", h)
	}
	id, span, ok := ParseTraceparent(h)
	if !ok || id != ID(0x4fa1b2c3d4e5f607) || span != 3 {
		t.Fatalf("parse = %v %v %v", id, span, ok)
	}
}

func TestTraceparentParseRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"01-00000000000000004fa1b2c3d4e5f607-0000000000000003-01", // unknown version
		"00-00000000000000000000000000000000-0000000000000003-01", // zero trace id
		"00-00000000000000004fa1b2c3d4e5f607-0000000000000000-01", // zero span id
		"00-zz000000000000004fa1b2c3d4e5f607-0000000000000003-01", // non-hex
		"00-00000000000000004fa1b2c3d4e5f607-0000000000000003-zz", // non-hex flags
		"00_00000000000000004fa1b2c3d4e5f607-0000000000000003-01", // bad separator
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
}

func TestTraceparentHigh64Fallback(t *testing.T) {
	// A foreign 128-bit ID whose low half is zero still joins via the
	// high half rather than being dropped.
	id, span, ok := ParseTraceparent("00-deadbeefcafef00d0000000000000000-0000000000000007-01")
	if !ok || id != ID(0xdeadbeefcafef00d) || span != 7 {
		t.Fatalf("parse = %v %v %v", id, span, ok)
	}
}

func TestStartRemoteJoinsTrace(t *testing.T) {
	tr := New(obs.NewRegistry())
	tr.SetEnabled(true)

	remoteID := ID(0xabcdef0123456789)
	ctx, root := tr.StartRemote(context.Background(), "api.put", remoteID, 5)
	if root.TraceID() != remoteID {
		t.Fatalf("trace id = %v, want %v", root.TraceID(), remoteID)
	}
	if root.SpanID() == 0 || root.SpanID() < 1<<63 {
		t.Fatalf("remote root span id = %d, want randomized high-bit base", root.SpanID())
	}
	_, child := Child(ctx, "vault.put")
	child.End(nil)
	root.End(nil)

	traces := tr.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	got := traces[0]
	if got.ID != remoteID {
		t.Fatalf("completed trace id = %v", got.ID)
	}
	rs := got.RootSpan()
	if rs == nil || rs.Name != "api.put" || !rs.Remote || rs.Parent != 5 {
		t.Fatalf("root span = %+v", rs)
	}
	// The server-only half still renders: the remote-parented root must
	// appear in the timeline even though span 5 is absent.
	text := Timeline(got)
	if !strings.Contains(text, "api.put") || !strings.Contains(text, "vault.put") {
		t.Fatalf("timeline missing spans:\n%s", text)
	}
}

func TestStartRemoteFallsBackWithoutIDs(t *testing.T) {
	tr := New(obs.NewRegistry())
	tr.SetEnabled(true)
	_, s := tr.StartRemote(context.Background(), "api.get", 0, 0)
	if !s.Recording() {
		t.Fatal("expected a locally rooted span")
	}
	if s.SpanID() != 1 {
		t.Fatalf("span id = %d, want 1 (local root)", s.SpanID())
	}
	s.End(nil)
}

func TestStartRemotePrefersInProcessParent(t *testing.T) {
	tr := New(obs.NewRegistry())
	tr.SetEnabled(true)
	ctx, parent := tr.Start(context.Background(), "client.put")
	_, s := tr.StartRemote(ctx, "api.put", ID(0x1234), 9)
	if s.TraceID() != parent.TraceID() {
		t.Fatal("remote IDs overrode an in-process parent")
	}
	s.End(nil)
	parent.End(nil)
}

func TestCrossBoundaryMerge(t *testing.T) {
	tr := New(obs.NewRegistry())
	tr.SetEnabled(true)

	// Client half: roots the trace and "sends" a traceparent.
	cctx, cspan := tr.Start(context.Background(), "client.put")
	hdr := FormatTraceparent(cspan.TraceID(), cspan.SpanID())

	// Server half: parses the header, roots its half on the same ID.
	id, pspan, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("header did not parse")
	}
	sctx, sspan := tr.StartRemote(context.Background(), "api.put", id, pspan)
	_, vspan := Child(sctx, "vault.put")
	vspan.End(nil)
	sspan.End(nil) // server half completes first (response written)

	_ = cctx
	cspan.End(nil) // then the client half

	traces := tr.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("ring holds %d traces, want 1 merged", len(traces))
	}
	m := traces[0]
	if m.ID != cspan.TraceID() {
		t.Fatalf("merged id = %v", m.ID)
	}
	if len(m.Spans) != 3 {
		t.Fatalf("merged spans = %d, want 3", len(m.Spans))
	}
	if m.Root != "client.put" {
		t.Fatalf("merged root = %q, want client.put", m.Root)
	}
	// The server root is parented under the client span: one tree.
	api := findSpan(m, "api.put")
	if api == nil || api.Parent != cspan.SpanID() {
		t.Fatalf("api span = %+v, want parent %d", api, cspan.SpanID())
	}
	vault := findSpan(m, "vault.put")
	if vault == nil || vault.Parent != api.SpanID {
		t.Fatalf("vault span not under api span: %+v", vault)
	}
	if d := m.Depth(); d != 3 {
		t.Fatalf("merged depth = %d, want 3", d)
	}
	text := Timeline(m)
	for _, want := range []string{"client.put", "api.put", "vault.put"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline missing %q:\n%s", want, text)
		}
	}
}

func findSpan(t *Trace, name string) *SpanRecord {
	for _, s := range t.Spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func TestTailRetention(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg)
	tr.SetEnabled(true)

	mk := func(name string, err error) {
		_, s := tr.Start(context.Background(), name)
		s.End(err)
	}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			mk(fmt.Sprintf("ok.%d", i), nil)
		}
	}

	mk("bad.0", errors.New("boom")) // will be evicted from ring → tail
	fill(DefaultRingSize)           // evicts bad.0 (interesting → tail)
	mk("ok.last", nil)              // evicts ok.0 (boring → counted)

	tail := tr.Tail(0)
	if len(tail) != 1 || tail[0].Root != "bad.0" {
		t.Fatalf("tail = %+v, want [bad.0]", tail)
	}
	if got := reg.Counter("obs.trace.evicted").Load(); got != 1 {
		t.Fatalf("obs.trace.evicted = %d, want 1 (only the boring trace)", got)
	}

	// Fill the tail past its cap: displaced interesting traces count too.
	for i := 1; i <= DefaultTailSize+1; i++ {
		mk(fmt.Sprintf("bad.%d", i), errors.New("boom"))
	}
	fill(DefaultRingSize) // pushes every bad trace to the tail
	if got := len(tr.Tail(0)); got != DefaultTailSize {
		t.Fatalf("tail len = %d, want %d (bounded)", got, DefaultTailSize)
	}
	if got := tr.Tail(1)[0].Root; got != fmt.Sprintf("bad.%d", DefaultTailSize+1) {
		t.Fatalf("newest tail trace = %q", got)
	}
}
