package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

func TestMetricsEndpoint(t *testing.T) {
	p := newPlane(t, api.Config{})
	if err := p.v.Put(context.Background(), "obj", []byte("metrics smoke")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.v.Get(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	code, body := p.get(t, "/metrics")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"# TYPE vault_get_ok summary",
		"vault_get_ok_count 1",
		`vault_get_ok{quantile="0.95"}`,
		"# TYPE cluster_probe_total counter",
		"# TYPE vault_read_degraded_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	p := newPlane(t, api.Config{})
	if err := p.v.Put(context.Background(), "obj", []byte("snapshot smoke")); err != nil {
		t.Fatal(err)
	}
	code, body := p.get(t, "/snapshot")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/snapshot not JSON: %v", err)
	}
	if snap.Schema != obs.SchemaVersion || snap.Histograms["vault.put.ok"].Count != 1 {
		t.Fatalf("snapshot %s lacks the put: %+v", snap.Schema, snap.Histograms["vault.put.ok"])
	}
}

func TestTracesEndpoint(t *testing.T) {
	p := newPlane(t, api.Config{})
	if err := p.v.Put(context.Background(), "obj", []byte("trace smoke")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.v.Get(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	code, body := p.get(t, "/traces?n=2")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var out struct {
		Enabled bool           `json:"tracing_enabled"`
		Traces  []*trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if !out.Enabled || len(out.Traces) != 2 {
		t.Fatalf("traces = %d enabled=%v", len(out.Traces), out.Enabled)
	}
	if out.Traces[1].Root != "vault.get" || out.Traces[1].Depth() < 3 {
		t.Fatalf("last trace = %s depth %d", out.Traces[1].Root, out.Traces[1].Depth())
	}

	code, text := p.get(t, "/traces?n=1&format=text")
	if code != 200 || !strings.Contains(text, "vault.get") || !strings.Contains(text, "cluster.probe") {
		t.Fatalf("text timeline = %d:\n%s", code, text)
	}

	if code, _ := p.get(t, "/traces?n=bogus"); code != 400 {
		t.Fatalf("bad n accepted: %d", code)
	}
}

func TestSLOEndpoint(t *testing.T) {
	p := newPlane(t, api.Config{})
	code, body := p.get(t, "/slo")
	if code != 200 {
		t.Fatalf("/slo = %d:\n%s", code, body)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/slo not JSON: %v", err)
	}
	if rep.Schema != obs.SLOReportSchema || len(rep.Subjects) != 0 {
		t.Fatalf("fresh server's report = %+v, want no subjects", rep)
	}
}

func TestPprofWired(t *testing.T) {
	p := newPlane(t, api.Config{})
	code, body := p.get(t, "/debug/pprof/cmdline")
	if code != 200 || body == "" {
		t.Fatalf("pprof cmdline = %d", code)
	}
}

func healthz(t *testing.T, p *plane) (int, api.Health) {
	t.Helper()
	code, body := p.get(t, "/healthz")
	var h api.Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	return code, h
}

func TestHealthzHealthy(t *testing.T) {
	p := newPlane(t, api.Config{})
	if err := p.v.Put(context.Background(), "obj", []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.v.Get(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	if code, h := healthz(t, p); code != 200 || !h.Healthy || len(h.Checks) != 2 {
		t.Fatalf("healthy vault reports %d: %+v", code, h)
	}
}

// Acceptance: when the degraded-read rate crosses the threshold,
// /healthz turns non-200 and names the failing check.
func TestHealthzDegradedRateTrips(t *testing.T) {
	p := newPlane(t, api.Config{Health: api.Thresholds{MaxDegradedRate: 0.25}})
	if err := p.v.Put(context.Background(), "obj", []byte("degraded reads trip the health check")); err != nil {
		t.Fatal(err)
	}
	// Take half the stripe offline: every read is degraded (rate 1.0).
	for i := 0; i < 4; i++ {
		p.c.SetOnline(i, false)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.v.Get(context.Background(), "obj"); err != nil {
			t.Fatal(err)
		}
	}
	code, h := healthz(t, p)
	if code != 503 || h.Healthy {
		t.Fatalf("degraded vault reports %d: %+v", code, h)
	}
	for _, ch := range h.Checks {
		if ch.Name == "degraded.read.rate" {
			if ch.OK || ch.Value <= 0.25 {
				t.Fatalf("check = %+v", ch)
			}
			return
		}
	}
	t.Fatal("degraded.read.rate check missing")
}

func TestHealthzScrubBacklogTrips(t *testing.T) {
	// Every read below rots a shard, so the degraded rate hits 1.0;
	// loosen that check to isolate the backlog one.
	p := newPlane(t, api.Config{Health: api.Thresholds{MaxScrubBacklog: 1, MaxDegradedRate: 1.0}})
	ids := []string{"a", "b", "c"}
	for _, id := range ids {
		if err := p.v.Put(context.Background(), id, []byte("backlog grows: "+id)); err != nil {
			t.Fatal(err)
		}
	}
	// Rot one shard of each object so every read discards and queues it.
	p.c.SetFaultPlan(&cluster.FaultPlan{Seed: 7, Nodes: map[int]cluster.NodeFaults{
		2: {CorruptProb: 1.0},
	}})
	for _, id := range ids {
		if _, err := p.c.GetCtx(context.Background(), 2, cluster.ShardKey{Object: id, Index: 2}); err != nil {
			t.Fatal(err)
		}
	}
	p.c.SetFaultPlan(nil)
	for _, id := range ids {
		if _, err := p.v.Get(context.Background(), id); err != nil && !errors.Is(err, core.ErrDegraded) {
			t.Fatal(err)
		}
	}
	if n := len(p.v.DirtyObjects()); n != 3 {
		t.Fatalf("dirty = %d, want 3", n)
	}
	if code, h := healthz(t, p); code != 503 {
		t.Fatalf("backlogged vault reports %d: %+v", code, h)
	}
	// Scrubbing clears the backlog and health recovers.
	if _, err := p.v.ScrubAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, h := healthz(t, p); code != 200 {
		t.Fatalf("scrubbed vault reports %d: %+v", code, h)
	}
}

// Regression: a lifetime degraded-read check could trip and never
// recover — once the historical ratio crossed the threshold, no amount
// of healthy traffic could pull it back under in finite time. The
// windowed check trips during the incident and goes green again once the
// window slides past it.
func TestHealthzWindowedTripAndRecover(t *testing.T) {
	p := newPlane(t, api.Config{Health: api.Thresholds{MaxDegradedRate: 0.25}})
	if err := p.v.Put(context.Background(), "obj", []byte("trip and recover")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1_700_000_000, 0)
	p.srv.SampleHealth(t0)

	// Incident: half the stripe offline, every read degraded.
	for i := 0; i < 4; i++ {
		p.c.SetOnline(i, false)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.v.Get(context.Background(), "obj"); err != nil {
			t.Fatal(err)
		}
	}
	p.srv.SampleHealth(t0.Add(10 * time.Second))
	if h := p.srv.CheckHealth(t0.Add(10 * time.Second)); h.Healthy {
		t.Fatalf("incident window reports healthy: %+v", h.Checks)
	}

	// Recovery: nodes back, reads clean again. The lifetime ratio is
	// still 4 degraded / 8 reads = 0.5 > 0.25, but the window only sees
	// the clean reads once the incident's buckets expire.
	for i := 0; i < 4; i++ {
		p.c.SetOnline(i, true)
	}
	later := t0.Add(obs.DefaultSLOInterval*obs.DefaultSLOBuckets + 20*time.Second)
	for i := 0; i < 4; i++ {
		if _, err := p.v.Get(context.Background(), "obj"); err != nil {
			t.Fatal(err)
		}
	}
	p.srv.SampleHealth(later)
	h := p.srv.CheckHealth(later)
	if !h.Healthy {
		t.Fatalf("recovered vault still unhealthy: %+v", h.Checks)
	}
	for _, ch := range h.Checks {
		if ch.Name == "degraded.read.rate" && ch.Value != 0 {
			t.Fatalf("windowed rate = %v, want 0 after recovery", ch.Value)
		}
	}

	// Sanity: the lifetime ratio really would have stayed tripped.
	snap := p.reg.Snapshot()
	reads := float64(snap.Histograms["vault.get.ok"].Count + snap.Histograms["vault.get.err"].Count)
	bad := float64(snap.Counters["vault.read.degraded"] + snap.Counters["vault.read.insufficient"])
	if bad/reads <= 0.25 {
		t.Fatalf("test premise broken: lifetime rate %v under threshold", bad/reads)
	}
}

// A health sample reads four series directly — it must not snapshot the
// registry (which sorts and quantiles every series) to find them.
func TestHealthSampleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the alloc gate")
	}
	p := newPlane(t, api.Config{})
	if err := p.v.Put(context.Background(), "obj", []byte("sampled")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.v.Get(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	if n := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Second)
		p.srv.SampleHealth(now)
	}); n > 2 {
		t.Fatalf("one health sample allocates %v, want ≤ 2", n)
	}
}

// A refused tenant name never reaches a handler, but the request is
// still on record: its span starts first, so it lands in api.<op>.err.
func TestInvalidTenantIsRecorded(t *testing.T) {
	p := newPlane(t, api.Config{})
	req, err := http.NewRequest("GET", p.url+"/v1/usage", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.TenantHeader, "bad tenant/..")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := p.reg.Snapshot().Histograms["api.usage.err"].Count; got != 1 {
		t.Fatalf("api.usage.err count = %d, want 1", got)
	}
}

// seriesNames lists every series in the registry, kind-prefixed, sorted.
func seriesNames(reg *obs.Registry) []string {
	s := reg.Snapshot()
	var out []string
	for name := range s.Counters {
		out = append(out, "counter "+name)
	}
	for name := range s.Histograms {
		out = append(out, "histogram "+name)
	}
	sort.Strings(out)
	return out
}

// TestSeriesInventory pins every series the bench-shaped service
// registers — 14 nodes, RS 10+4, a 4 MiB read cache, a private registry
// and a disabled tracer shared with the client, as bench/service.go
// builds it — over one PUT, two GETs, a HEAD, a scrub, a renew of each mode and a
// DELETE. Adding or removing a series must edit the list, and every
// entry names what reads it: a test, the SLO table, /healthz, attacksim
// or an example.
func TestSeriesInventory(t *testing.T) {
	reg := obs.NewRegistry()
	tr := trace.New(reg)
	c := cluster.New(14, nil)
	c.UseRegistry(reg)
	t.Cleanup(func() { c.Close() })
	v, err := core.NewVault(c, core.Erasure{N: 14, K: 10}, core.WithReadCache(4<<20), core.WithRegistry(reg), core.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(v, api.Config{Registry: reg, Tracer: tr}).Handler())
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	cl.Tracer = tr
	ctx := context.Background()

	if _, err := cl.Put(ctx, "obj", bytes.NewReader(pattern(16<<10))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.GetBytes(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(seriesNames(reg)); n > 110 {
		t.Errorf("PUT + 2 GETs registered %d series, want ≤ 110", n)
	} else {
		t.Logf("PUT + 2 GETs registered %d series", n)
	}
	if _, err := cl.Stat(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Scrub(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"shares", "integrity"} {
		if _, err := cl.Renew(ctx, "obj", mode, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}

	// One record per operation: every call lands once in its layer's ok
	// histogram — client, api, vault — and nowhere else.
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"client.put.ok": 1, "api.put.ok": 1, "vault.put.ok": 1,
		"client.get.ok": 2, "api.get.ok": 2, "vault.get.ok": 2,
		"client.stat.ok": 1, "api.stat.ok": 1,
		"client.scrub.ok": 1, "api.scrub.ok": 1, "vault.scrub.ok": 1,
		"client.renew.ok": 2, "api.renew.ok": 2, "vault.renew.ok": 2,
		"client.delete.ok": 1, "api.delete.ok": 1, "vault.delete.ok": 1,
		`api.ok{tenant="default"}`: 8,
	} {
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}

	got := seriesNames(reg)
	var want []string
	for _, line := range strings.Split(inventory+nodeSeries, "\n") {
		if name, _, _ := strings.Cut(line, "#"); strings.TrimSpace(name) != "" {
			want = append(want, strings.TrimSpace(name))
		}
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("series inventory changed; edit the list, naming each new series' reader.\ngot:\n%s", strings.Join(got, "\n"))
	}
}

// inventory is the golden series list, grouped by reader. A name's
// reader is the first test (or program) after the "#".
const inventory = `
histogram client.put.ok      # TestSeriesInventory: one record per call, per layer
histogram client.put.err     # TestSeriesInventory (its pair)
histogram client.get.ok      # TestSeriesInventory
histogram client.get.err     # TestSeriesInventory
histogram client.stat.ok     # TestSeriesInventory
histogram client.stat.err    # TestSeriesInventory
histogram client.scrub.ok    # TestSeriesInventory
histogram client.scrub.err   # TestSeriesInventory
histogram client.renew.ok    # TestSeriesInventory
histogram client.renew.err   # TestSeriesInventory
histogram client.delete.ok   # TestSeriesInventory
histogram client.delete.err  # TestSeriesInventory

histogram api.put.ok         # TestServedOpsFeedEncodingMetrics, TestSeriesInventory
histogram api.put.err        # TestSeriesInventory (its pair)
histogram api.get.ok         # TestServedOpsFeedEncodingMetrics, TestSeriesInventory
histogram api.get.err        # TestGetChainFailureReachesTheClient
histogram api.stat.ok        # TestSeriesInventory
histogram api.stat.err       # TestSeriesInventory (its pair)
histogram api.scrub.ok       # TestSeriesInventory
histogram api.scrub.err      # TestSeriesInventory (its pair)
histogram api.renew.ok       # TestSeriesInventory
histogram api.renew.err      # TestSeriesInventory (its pair)
histogram api.delete.ok      # TestSeriesInventory
histogram api.delete.err     # TestSeriesInventory (its pair)
histogram api.ok{tenant="default"}  # TestMetricsLabeledFamilies, TestSeriesInventory
counter api.rate_limited     # TestRateLimit429

histogram vault.put.ok       # TestVaultMetricsSnapshot, TestSnapshotEndpoint
histogram vault.put.err      # TestVaultMetricsSnapshot (its pair)
histogram vault.get.ok       # /healthz (degraded-read rate), TestMetricsEndpoint, examples/fault-injection
histogram vault.get.err      # /healthz (degraded-read rate)
histogram vault.scrub.ok     # TestSeriesInventory
histogram vault.scrub.err    # TestSeriesInventory (its pair)
histogram vault.renew.ok     # TestSeriesInventory
histogram vault.renew.err    # TestSeriesInventory (its pair)
histogram vault.delete.ok    # TestSeriesInventory
histogram vault.delete.err   # TestSeriesInventory (its pair)
histogram vault.get.bytes    # TestVaultMetricsSnapshot
histogram encode.erasure_coding.mbps  # TestServedOpsFeedEncodingMetrics
histogram decode.erasure_coding.mbps  # TestServedOpsFeedEncodingMetrics
counter vault.read.degraded     # /healthz (degraded-read rate)
counter vault.read.insufficient # /healthz (degraded-read rate)
counter vault.read.discarded    # TestVaultRotDiscardQueuesScrub, examples/fault-injection
counter vault.scrub.repairs     # TestVaultRotDiscardQueuesScrub, examples/fault-injection
counter vault.cache.hit{encoding="erasure_coding"}           # checkCacheSeries (against CacheStats)
counter vault.cache.miss{encoding="erasure_coding"}          # checkCacheSeries, TestMetricsLabeledFamilies
counter vault.cache.evict{encoding="erasure_coding"}         # TestVaultCacheEvictionSeries
counter vault.cache.admit_reject{encoding="erasure_coding"}  # TestVaultCacheEvictionSeries

histogram cluster.get.ok        # TestVaultMetricsSnapshot
histogram cluster.get.err       # TestVaultMetricsSnapshot
histogram cluster.staged.ok     # TestVaultMetricsSnapshot, TestDeleteObservability
histogram cluster.staged.err    # TestVaultMetricsSnapshot (its pair)
histogram cluster.delete.ok     # TestDeleteObservability
histogram cluster.delete.err    # TestDeleteObservability
counter cluster.stage.commit    # TestVaultMetricsSnapshot, TestDeleteObservability, examples/fault-injection
counter cluster.stage.abort     # examples/fault-injection
counter cluster.fetch.degraded  # attacksim, examples/fault-injection
counter cluster.fetch.short     # attacksim
counter obs.trace.evicted       # TestTailRetention
`

// nodeSeries is the per-node attribution: cluster.probe{node} (read by
// TestVaultMetricsSnapshot, TestMetricsLabeledFamilies and
// examples/fault-injection), cluster.discard{node} (TestVaultRotDiscardQueuesScrub,
// attacksim, examples/fault-injection) and cluster.retry{node}
// (TestRetriesLandOnTheClustersRegistry, attacksim, examples/fault-injection),
// one series per node of the 14.
var nodeSeries = func() string {
	var b strings.Builder
	for _, fam := range []string{"cluster.probe", "cluster.discard", "cluster.retry"} {
		for node := 0; node < 14; node++ {
			fmt.Fprintf(&b, "counter %s{node=\"%02d\"}\n", fam, node)
		}
	}
	return b.String()
}()
