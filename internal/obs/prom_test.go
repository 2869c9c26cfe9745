package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("vault.get.degraded").Add(3)
	h := r.Histogram("vault.get.ok", LatencyBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(1e6) // 1ms
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vault_get_degraded_total counter",
		"vault_get_degraded_total 3",
		"# TYPE vault_get_ok summary",
		`vault_get_ok{quantile="0.5"}`,
		`vault_get_ok{quantile="0.99"}`,
		"vault_get_ok_sum 1e+08",
		"vault_get_ok_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	checkPromGrammar(t, out)
}

// checkPromGrammar verifies every non-comment line fits
// NAME{labels} VALUE with a legal name and balanced quoting in the
// label block. Label values may contain spaces and escapes, so the line
// is split at the label block's closing brace rather than on fields.
func checkPromGrammar(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			end := -1
			inQuote := false
			for j := i + 1; j < len(line); j++ {
				switch {
				case inQuote && line[j] == '\\':
					j++ // skip escaped char
				case line[j] == '"':
					inQuote = !inQuote
				case !inQuote && line[j] == '}':
					end = j
				}
				if end >= 0 {
					break
				}
			}
			if end < 0 {
				t.Fatalf("unterminated label block in %q", line)
			}
			labels := line[i+1 : end]
			for _, pair := range splitLabelPairs(labels) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !strings.HasPrefix(v, `"`) || !strings.HasSuffix(v, `"`) {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
				if strings.ContainsAny(k, ".-") || k == "" {
					t.Fatalf("illegal label name %q in %q", k, line)
				}
				if strings.ContainsAny(strings.TrimSuffix(v[1:], `"`), "\n") {
					t.Fatalf("unescaped newline in label value in %q", line)
				}
			}
			rest = line[end+1:]
		} else if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name, rest = line[:sp], line[sp:]
		}
		if fields := strings.Fields(rest); len(fields) != 1 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if strings.ContainsAny(name, ".-") || name == "" {
			t.Fatalf("unsanitized metric name in %q", line)
		}
	}
}

// splitLabelPairs splits k="v" pairs on commas outside quotes.
func splitLabelPairs(s string) []string {
	var pairs []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == ',':
			pairs = append(pairs, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		pairs = append(pairs, s[start:])
	}
	return pairs
}

func TestWritePrometheusLabeled(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.With("acme").Add(42)
	lc.With("umbrella").Add(7)
	r.Counter("api.admitted").Add(3)
	lh := r.LabeledHistogram("vault.put.ns", LatencyBuckets(), "encoding")
	for i := 0; i < 10; i++ {
		lh.With("erasure").Observe(2e6)
	}

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE api_requests_total counter",
		`api_requests_total{tenant="acme"} 42`,
		`api_requests_total{tenant="umbrella"} 7`,
		"# TYPE api_admitted_total counter",
		"api_admitted_total 3",
		"# TYPE vault_put_ns summary",
		`vault_put_ns{encoding="erasure",quantile="0.5"}`,
		`vault_put_ns{encoding="erasure",quantile="0.99"}`,
		`vault_put_ns_sum{encoding="erasure"} 2e+07`,
		`vault_put_ns_count{encoding="erasure"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	checkPromGrammar(t, out)
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.With(`quo"te`).Inc()
	lc.With(`back\slash`).Inc()
	lc.With("new\nline").Inc()
	lc.With("with space").Inc()

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`api_requests_total{tenant="quo\"te"} 1`,
		`api_requests_total{tenant="back\\slash"} 1`,
		`api_requests_total{tenant="new\nline"} 1`,
		`api_requests_total{tenant="with space"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	checkPromGrammar(t, out)
}

func TestWritePrometheusOverflowSeries(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.SetMaxSeries(2)
	lc.With("a").Inc()
	lc.With("b").Inc()
	lc.With("c").Add(4) // overflows
	lc.With("d").Add(4) // same overflow series

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `api_requests_total{tenant="_overflow"} 8`) {
		t.Fatalf("overflow series missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "obs_labels_overflow_total 2") {
		t.Fatalf("obs.labels.overflow counter missing:\n%s", out)
	}
	checkPromGrammar(t, out)
}

func TestSnapshotLabeledStable(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("cluster.probe", "node")
	lc.With("00").Add(5)
	lc.With("01").Add(3)
	r.Counter("cluster.probe.unrelated").Add(100)
	lh := r.LabeledHistogram("vault.put.ns", LatencyBuckets(), "encoding")
	lh.With("erasure").Observe(1e6)

	s := r.Snapshot()
	if s.Schema != SchemaVersion {
		t.Fatalf("schema = %q, want %q", s.Schema, SchemaVersion)
	}
	if got := s.Counters[`cluster.probe{node="00"}`]; got != 5 {
		t.Fatalf(`cluster.probe{node="00"} = %d, want 5 (counters %v)`, got, s.Counters)
	}
	// Sum adds a labelled family's series and nothing that merely shares
	// its prefix.
	if got := s.Sum("cluster.probe"); got != 8 {
		t.Fatalf("Sum(cluster.probe) = %d, want 8", got)
	}
	if h := s.Histograms[`vault.put.ns{encoding="erasure"}`]; h.Count != 1 {
		t.Fatalf("hist series = %+v", h)
	}
	// Two identical registries produce byte-identical JSON.
	if string(s.JSON()) != string(r.Snapshot().JSON()) {
		t.Fatal("snapshot JSON not stable across calls")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"vault.get.ok":                   "vault_get_ok",
		"cluster.fetch.discarded.node03": "cluster_fetch_discarded_node03",
		"9lives":                         "_9lives",
		"weird-name with spaces":         "weird_name_with_spaces",
		"already_fine:subsystem":         "already_fine:subsystem",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
