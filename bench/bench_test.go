package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"securearchive/internal/core"
	"securearchive/internal/group"
)

func TestPercentile(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {1, 1}, {100, 10}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestMedianSliceRate(t *testing.T) {
	// Four slices of 1 s. Three hold 10 evenly spaced completions (10/s);
	// in the third a stall leaves only two. The median slice ignores it.
	const sec = int64(1e9)
	var ends []int64
	for slice := int64(0); slice < 4; slice++ {
		n := int64(10)
		if slice == 2 {
			n = 2
		}
		for i := int64(1); i <= n; i++ {
			ends = append(ends, slice*sec+i*sec/n-1)
		}
	}
	ends = append(ends, 4*sec+5) // after the window: not counted
	if got := medianSliceRate(ends, 4*sec, 4); math.Abs(got-10) > 1e-6 {
		t.Errorf("median slice rate = %v, want 10", got)
	}
	// A slice's rate is measured up to its last completion: 5 completions
	// ending at 0.5 s are 10/s, not 5/s.
	half := []int64{sec / 10, 2 * sec / 10, 3 * sec / 10, 4 * sec / 10, 5 * sec / 10}
	if got := medianSliceRate(half, sec, 1); math.Abs(got-10) > 1e-6 {
		t.Errorf("rate of 5 completions in 0.5 s = %v, want 10", got)
	}
}

func TestUnionNs(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 70}}
	if got := unionNs(ivs, 0, 60); got != 5+20+20 {
		t.Errorf("union = %d, want 45", got)
	}
}

func opsOf(w *workload, seed int64, worker, n int) []op {
	g := newGen(w, seed, worker, 64)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := opsOf(w, 7, 0, 500), opsOf(w, 7, 0, 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: op %d differs under the same seed: %v vs %v", w.name, i, a[i], b[i])
			}
		}
		if w.preload > 0 { // the others name new objects in order, whatever the seed; their payloads differ
			c := opsOf(w, 8, 0, 500)
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == len(a) {
				t.Errorf("%s: seeds 7 and 8 gave the same 500 ops", w.name)
			}
		}
	}
	p1, p2, p3, p4 := make([]byte, 1000), make([]byte, 1000), make([]byte, 1000), make([]byte, 1000)
	fillPayload(p1, 7, "w/0/1")
	fillPayload(p2, 7, "w/0/1")
	fillPayload(p3, 8, "w/0/1")
	fillPayload(p4, 7, "w/0/2")
	if !bytes.Equal(p1, p2) {
		t.Error("same seed and id gave different payloads")
	}
	if bytes.Equal(p1, p3) || bytes.Equal(p1, p4) {
		t.Error("a different seed or id gave the same payload")
	}
}

func TestCycleStaysWhole(t *testing.T) {
	g := newGen(workloadByName("bulk_stream"), 1, 0, 0)
	for i := 0; i < 9; i += 3 {
		if !g.atBoundary() {
			t.Fatalf("op %d: not at a boundary before a PUT", i)
		}
		put, get, del := g.next(), g.next(), g.next()
		if put.kind != opPut || get.kind != opGet || del.kind != opDelete || put.id != get.id || get.id != del.id {
			t.Fatalf("cycle %d: %v %v %v", i/3, put, get, del)
		}
	}
}

// The decorators must change nothing but the clock: a decorated service
// returns the same bytes and stores the same number of them as a plain
// one, and core.WithParallelism still reaches the encoding underneath.
func TestDecoratorsAreTransparent(t *testing.T) {
	w := &workload{name: "transparent", backend: "mem", objSize: 3 << 20}
	rec := newRecorder()
	rec.on.Store(true)
	small := core.WithGroup(group.Test())
	plain, err := startService(w, "", nil, small, core.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	timed, err := startService(w, "", rec, small, core.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	defer timed.close()

	if enc, ok := timed.vault.Encoding.(timedEncoding); !ok {
		t.Fatalf("decorated vault's encoding is %T", timed.vault.Encoding)
	} else if er, ok := enc.inner.(core.Erasure); !ok || er.Par != 3 {
		t.Errorf("WithParallelism(3) did not reach the wrapped encoding: %+v", enc.inner)
	}
	if er := plain.vault.Encoding.(core.Erasure); er.Par != 3 {
		t.Errorf("plain vault Par = %d", er.Par)
	}

	ctx := context.Background()
	for i, size := range []int{1, 1000, smallObject, 1 << 20, 3<<20 - 17} { // one chunk, exactly one, several
		id := fmt.Sprintf("o/%d", i)
		data := make([]byte, size)
		fillPayload(data, 3, id)
		var outs [2]bytes.Buffer
		for j, s := range []*service{plain, timed} {
			rec.cur.Store(1) // any root: the decorators record only under one
			if n, err := s.http().put(ctx, id, bytes.NewReader(data)); err != nil || n != int64(size) {
				t.Fatalf("put %s: n=%d err=%v", id, n, err)
			}
			if _, err := s.http().get(ctx, id, &outs[j]); err != nil {
				t.Fatalf("get %s: %v", id, err)
			}
		}
		if !bytes.Equal(outs[0].Bytes(), data) || !bytes.Equal(outs[1].Bytes(), data) {
			t.Errorf("%s: read differs from what was written", id)
		}
	}
	if a, b := plain.cluster.StoredBytes(), timed.cluster.StoredBytes(); a != b {
		t.Errorf("stored bytes: plain %d, decorated %d", a, b)
	}
	seen := map[string]bool{}
	for _, s := range rec.spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"encoding.encode", "encoding.decode", "store.stage", "store.commit", "store.get"} {
		if !seen[name] {
			t.Errorf("the decorators recorded no %s span", name)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	// One PUT of 100 ns: encode 10–40, a stage 30–60 overlapping it (the
	// chunk pipeline), commit 70–90. Covered: 10–60 and 70–90 = 70 ns.
	// One GET of 50 ns with no child at all: a cache hit.
	spans := []span{
		{ID: 1, Trace: 1, Name: "core.put", Start: 0, End: 100, Bytes: 1000},
		{ID: 2, Parent: 1, Trace: 1, Name: "encoding.encode", Start: 10, End: 40, Bytes: 1000},
		{ID: 3, Parent: 1, Trace: 1, Name: "store.stage", Start: 30, End: 60},
		{ID: 4, Parent: 1, Trace: 1, Name: "store.commit", Start: 70, End: 90},
		{ID: 5, Trace: 5, Name: "core.get", Start: 200, End: 250},
		{ID: 6, Trace: 6, Name: "core.get", Start: 300, End: 400},
		{ID: 7, Parent: 6, Trace: 6, Name: "store.get", Start: 310, End: 320},
		{ID: 8, Parent: 6, Trace: 6, Name: "store.get", Start: 310, End: 330},
	}
	agg := aggregate(spans)
	put, get := agg["core.put"], agg["core.get"]
	if put.n != 1 || put.selfNs != 30 {
		t.Errorf("put: n=%d self=%d ns, want 1 and 30", put.n, put.selfNs)
	}
	if got := put.childMs("store.stage") * 1e6; math.Abs(got-30) > 1e-9 {
		t.Errorf("store.stage per put = %v ns, want 30", got)
	}
	if get.n != 2 || get.bare != 1 || get.bareNs != 50 || get.selfNs != 50+80 {
		t.Errorf("get: n=%d bare=%d bareNs=%d self=%d", get.n, get.bare, get.bareNs, get.selfNs)
	}
	if got := get.childCalls("store.get"); got != 1 {
		t.Errorf("store.get calls per get = %v, want 1 (2 calls over 2 GETs)", got)
	}
	if got := get.childFrac(); got != 0.5 {
		t.Errorf("share of GETs with a child = %v, want 0.5", got)
	}
}

// A short run of every workload, end to end and traced, must emit every
// metric BENCHMARK.json names, exactly those, each a finite number. The
// preload is cut to 64 objects and the small group stands in for the
// production one; nowhere else does the benchmark do either.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, sp.Workloads[i].Name, w.name)
		}
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{
				w: w, seed: 5, window: 300 * time.Millisecond, workDir: t.TempDir(),
				preload: min(w.preload, 64), warmup: 6, vaultOpts: []core.VaultOption{core.WithGroup(group.Test())},
			}
			e2e, err := runE2E(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end to end", e2e.result, sp.EndToEnd)
			tr, err := runTraced(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			check(t, "traced", tr.result, sp.PerLayer)
			if tr.budget == "" {
				t.Error("no layer budget printed")
			}
		})
	}
}

func check(t *testing.T, what string, res result, want []metricSpec) {
	t.Helper()
	if err := checkNames(res.Metrics, want); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
}
