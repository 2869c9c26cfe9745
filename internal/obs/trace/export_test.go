package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"securearchive/internal/obs"
)

func TestJSONLRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(reg)
	tr.SetEnabled(true)
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	tr.AddExporter(jl)

	for i := 0; i < 3; i++ {
		ctx, root := tr.Start(context.Background(), "vault.get",
			Str("object", "o"), Int("bytes", 4096), Int("attempt", i))
		_, c := Child(ctx, "cluster.probe", Int("node", i))
		c.Event("shard.discarded", Int("node", i))
		c.End(errors.New("cluster: shard failed validation"))
		root.End(nil)
	}

	if err := jl.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("journal lines = %d, want 3", lines)
	}
	var back []*Trace
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var tc Trace
		if err := json.Unmarshal(line, &tc); err != nil {
			t.Fatal(err)
		}
		back = append(back, &tc)
	}
	if len(back) != 3 {
		t.Fatalf("round-tripped traces = %d, want 3", len(back))
	}
	orig := tr.Recent(0)
	for i, got := range back {
		want := orig[i]
		if got.ID != want.ID || got.Root != want.Root || len(got.Spans) != len(want.Spans) {
			t.Fatalf("trace %d diverged: got %v/%s/%d spans, want %v/%s/%d",
				i, got.ID, got.Root, len(got.Spans), want.ID, want.Root, len(want.Spans))
		}
		// Byte-identical re-marshal proves nothing was lost or reshaped.
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("trace %d re-marshal differs:\n%s\n%s", i, a, b)
		}
	}
	// Typed payloads survive.
	probe := back[1].Children(1)
	if len(probe) != 1 {
		t.Fatalf("children = %+v", probe)
	}
	if a, ok := probe[0].Attr("node"); !ok || a.Num != 1 || a.Kind != KindInt {
		t.Fatalf("node attr = %+v", a)
	}
	if probe[0].Events[0].Name != "shard.discarded" {
		t.Fatalf("event = %+v", probe[0].Events[0])
	}
	if probe[0].Err == "" {
		t.Fatal("span error lost in round trip")
	}
}

func TestJSONLWriteErrorSticks(t *testing.T) {
	j := NewJSONL(failWriter{})
	j.Export(&Trace{Root: "x", Spans: []*SpanRecord{}})
	if j.Err() == nil {
		t.Fatal("write error not captured")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTraceIDHex(t *testing.T) {
	id := ID(0xDEADBEEF)
	if id.String() != "00000000deadbeef" {
		t.Fatalf("id = %s", id)
	}
	blob, _ := json.Marshal(id)
	var back ID
	if err := json.Unmarshal(blob, &back); err != nil || back != id {
		t.Fatalf("id round trip: %v %v", back, err)
	}
	if err := back.UnmarshalText([]byte("zz")); err == nil {
		t.Fatal("bad hex accepted")
	}
}
