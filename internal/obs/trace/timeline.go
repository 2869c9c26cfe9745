package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Timeline renders a completed trace as an indented per-span timeline —
// what the api server's /traces endpoint serves and the fault-injection
// example prints for its slowest request:
//
//	trace 7c0f4e9b12aa3301 vault.get 2.31ms (9 spans)
//	  vault.get [object=census encoding=shamir] 2.31ms
//	    cluster.fetch [object=census n=8 want=4] 2.10ms
//	      cluster.probe [node=0 shard=0] 0.51ms ERR cluster: node offline: ...
//	        · node.down [node=0] +0.51ms
//	      cluster.probe [node=4 shard=4] 1.40ms
//	        · backoff.slept [attempt=1 delay_ns=200000] +0.20ms
//	    vault.decode [shards=4] 0.15ms
//	    vault.verify 0.02ms
//
// Spans nest by parent ID; siblings order by start time. Events render
// as "·" lines with their offset from the span's start.
func Timeline(t *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s %s %s (%d spans", t.ID, t.Root, fmtNs(t.DurNs), len(t.Spans))
	if t.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", t.Dropped)
	}
	b.WriteString(")\n")
	// Spans whose parent is absent from the trace (the remote caller's
	// span in a server-only half of a propagated trace) render as
	// top-level rather than silently disappearing.
	byID := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		byID[s.SpanID] = true
	}
	children := make(map[uint64][]*SpanRecord, len(t.Spans))
	for _, s := range t.Spans {
		parent := s.Parent
		if !byID[parent] {
			parent = 0
		}
		children[parent] = append(children[parent], s)
	}
	for _, kids := range children {
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	}
	var walk func(parent uint64, depth int)
	seen := make(map[uint64]bool, len(t.Spans))
	walk = func(parent uint64, depth int) {
		for _, s := range children[parent] {
			if seen[s.SpanID] {
				continue
			}
			seen[s.SpanID] = true
			indent := strings.Repeat("  ", depth)
			fmt.Fprintf(&b, "%s%s%s %s", indent, s.Name, fmtAttrs(s.Attrs), fmtNs(s.DurNs))
			if s.Err != "" {
				fmt.Fprintf(&b, " ERR %s", s.Err)
			}
			b.WriteByte('\n')
			for _, e := range s.Events {
				fmt.Fprintf(&b, "%s  · %s%s +%s\n", indent, e.Name, fmtAttrs(e.Attrs), fmtNs(e.OffsetNs))
			}
			walk(s.SpanID, depth+1)
		}
	}
	walk(0, 1)
	return b.String()
}

func fmtAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.ValueString()
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// fmtNs renders nanoseconds in the unit that keeps 2–4 significant
// digits readable.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
