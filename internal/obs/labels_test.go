package obs

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
)

func TestLabeledCounterBasics(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.With("acme").Add(3)
	lc.With("acme").Inc()
	lc.With("umbrella").Inc()

	if got := lc.With("acme").Load(); got != 4 {
		t.Fatalf("acme = %d, want 4", got)
	}
	if got := lc.With("umbrella").Load(); got != 1 {
		t.Fatalf("umbrella = %d, want 1", got)
	}
	// Same name resolves the same family; series identity is stable.
	if r.LabeledCounter("api.requests", "tenant").With("acme") != lc.With("acme") {
		t.Fatal("re-resolved family returned a different series")
	}
	if got := r.Counter("obs.labels.overflow").Load(); got != 0 {
		t.Fatalf("overflow counter = %d, want 0", got)
	}
}

func TestLabeledSchemaConflict(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("api.requests", "tenant")
	r.LabeledCounter("api.requests", "node") // wrong keys: counted, not fatal
	if got := r.Counter("obs.labels.schema_conflict").Load(); got != 1 {
		t.Fatalf("schema_conflict = %d, want 1", got)
	}
}

func TestLabeledOverflow(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.SetMaxSeries(4)
	for i := 0; i < 4; i++ {
		lc.With(fmt.Sprintf("t%d", i)).Inc()
	}
	// Past the bound: both land on the shared overflow series and each
	// landing bumps the registry counter.
	lc.With("t-extra-1").Add(5)
	lc.With("t-extra-2").Add(5)
	if got := r.Counter("obs.labels.overflow").Load(); got != 2 {
		t.Fatalf("obs.labels.overflow = %d, want 2", got)
	}

	values := map[string]int64{}
	lc.each(func(name string, c *Counter) { values[name] = c.Load() })
	if len(values) != 5 {
		t.Fatalf("series count = %d, want 5 (4 live + overflow)", len(values))
	}
	if got := values[`api.requests{tenant="_overflow"}`]; got != 10 {
		t.Fatalf("overflow series = %d, want 10 (series %v)", got, values)
	}
	// Existing series still resolve normally after overflow.
	if lc.With("t0").Load() != 1 {
		t.Fatal("live series disturbed by overflow")
	}
}

func TestLabeledHistogramAndPlainSeries(t *testing.T) {
	r := NewRegistry()
	lh := r.LabeledHistogram("vault.put.ns", LatencyBuckets(), "encoding")
	for i := 0; i < 100; i++ {
		lh.With("erasure").Observe(1e6)
	}
	if got := lh.With("erasure").Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if p50 := lh.With("erasure").Quantile(0.5); p50 <= 0 || p50 > 2e6 {
		t.Fatalf("p50 = %g, want ~1e6", p50)
	}

	// A plain counter is the one series of a key-less family: the same
	// pointer under the empty label value, rendered under the bare name.
	c := r.Counter("vault.cache.evictions")
	c.Add(2)
	if c != family(r, r.counters, "vault.cache.evictions", "", nil, newCounter).With("") {
		t.Fatal("plain counter is not its family's zero-label series")
	}
	if got := r.Snapshot().Counters["vault.cache.evictions"]; got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

func TestLabeledConcurrent(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	var wg sync.WaitGroup
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lc.With("t" + strconv.Itoa(i%8)).Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	lc.each(func(_ string, c *Counter) { total += c.Load() })
	if total != goroutines*perG {
		t.Fatalf("total = %d, want %d", total, goroutines*perG)
	}
}

// TestLabeledCounterZeroAllocs is the hot-path gate: after a series'
// first touch, With+Inc must not allocate, and neither may a plain
// counter's lookup. The verify skill runs this by name.
func TestLabeledCounterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the alloc gate")
	}
	r := NewRegistry()
	lc := r.LabeledCounter("api.requests", "tenant")
	lc.With("acme").Inc() // first touch: pays the copy-on-write insert
	if n := testing.AllocsPerRun(1000, func() {
		lc.With("acme").Inc()
	}); n != 0 {
		t.Fatalf("labeled counter hot path allocates %v/op, want 0", n)
	}
	r.Counter("vault.read.degraded").Inc()
	if n := testing.AllocsPerRun(1000, func() {
		r.Counter("vault.read.degraded").Inc()
	}); n != 0 {
		t.Fatalf("plain counter lookup allocates %v/op, want 0", n)
	}

	lh := r.LabeledHistogram("vault.put.ns", LatencyBuckets(), "encoding")
	lh.With("erasure").Observe(1)
	if n := testing.AllocsPerRun(1000, func() {
		lh.With("erasure").Observe(1e6)
	}); n != 0 {
		t.Fatalf("labeled histogram hot path allocates %v/op, want 0", n)
	}
}
