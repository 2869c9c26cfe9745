package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), which is what the /metrics endpoint serves.
// Every counter is named <name>_total; histograms are exported as summaries — pre-computed p50/p95/p99 quantiles plus
// _sum and _count — because the registry estimates quantiles at snapshot
// time rather than shipping raw buckets. Dotted metric names become
// underscore-separated (vault.get.ok → vault_get_ok), a labelled series
// keeps its label block (cluster_probe_total{node="00"} 42), and output
// is sorted by series so scrapes diff cleanly.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	last := ""
	// series splits a series name into its Prometheus name and label
	// block, writing the family's TYPE line before its first series.
	series := func(name, kind string) (string, string) {
		fam, labels, found := strings.Cut(name, "{")
		if found {
			labels = "{" + labels
		}
		pn := promName(fam)
		if kind == "counter" {
			pn += "_total"
		}
		if pn != last {
			fmt.Fprintf(&b, "# TYPE %s %s\n", pn, kind)
			last = pn
		}
		return pn, labels
	}
	for _, name := range sortedKeys(s.Counters) {
		pn, labels := series(name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", pn, labels, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn, labels := series(name, "summary")
		fmt.Fprintf(&b, "%s%s %g\n%s%s %g\n%s%s %g\n%s_sum%s %g\n%s_count%s %d\n",
			pn, withLabel(labels, `quantile="0.5"`), h.P50,
			pn, withLabel(labels, `quantile="0.95"`), h.P95,
			pn, withLabel(labels, `quantile="0.99"`), h.P99,
			pn, labels, h.Sum, pn, labels, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLabel appends one pre-rendered k="v" pair to a label block ("" or
// {...}).
func withLabel(block, pair string) string {
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// promName maps a dotted registry name onto the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*: dots and dashes become underscores, any
// other illegal rune becomes '_', and a leading digit gets a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
