package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

// plane is one service wired to ONE registry and ONE tracer (enabled) —
// the production shape archivectl serve uses — so the tests below can
// watch a request cross client → HTTP → api → vault → cluster and come
// out as a single joined trace with labelled series on every level, and
// can read the server's operations plane.
type plane struct {
	srv *api.Server
	v   *core.Vault
	c   *cluster.Cluster
	reg *obs.Registry
	tr  *trace.Tracer
	url string
}

func newPlane(t *testing.T, cfg api.Config) *plane {
	t.Helper()
	p := &plane{reg: obs.NewRegistry(), c: cluster.New(8, nil)}
	p.tr = trace.New(p.reg)
	p.tr.SetEnabled(true)
	p.c.UseRegistry(p.reg)
	t.Cleanup(func() { p.c.Close() })
	var err error
	p.v, err = core.NewVault(p.c, core.Erasure{K: 4, N: 8},
		core.WithChunkSize(testChunk),
		core.WithRegistry(p.reg), core.WithTracer(p.tr))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = p.reg
	cfg.Tracer = p.tr
	p.srv = api.NewServer(p.v, cfg)
	hs := httptest.NewServer(p.srv.Handler())
	t.Cleanup(hs.Close)
	p.url = hs.URL
	return p
}

// get fetches one path from the server and returns status and body.
func (p *plane) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(p.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// newObsService is newPlane plus a client that shares its tracer.
func newObsService(t *testing.T, cfg api.Config) (*client.Client, *plane) {
	t.Helper()
	p := newPlane(t, cfg)
	cl := client.New(p.url)
	cl.Tracer = p.tr
	return cl, p
}

// Acceptance: a traced client PUT produces ONE joined trace — the
// client span, the api span it became on the far side of the HTTP
// boundary, and the vault/cluster work under it — visible in the
// /traces?format=text timeline.
func TestCrossBoundaryTraceJoins(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	tr := p.tr
	cl.Tenant = "acme"
	if _, err := cl.Put(context.Background(), "obj", bytes.NewReader(pattern(testChunk/2))); err != nil {
		t.Fatal(err)
	}

	// The client half sealed last, merging with the server half already
	// in the ring: one trace rooted at the client span.
	recent := tr.Recent(4)
	var joined *trace.Trace
	for _, tc := range recent {
		if tc.Root == "client.put" {
			joined = tc
		}
	}
	if joined == nil {
		t.Fatalf("no client.put trace in ring: %+v", recent)
	}
	var names []string
	byID := map[uint64]*trace.SpanRecord{}
	for _, sp := range joined.Spans {
		names = append(names, sp.Name)
		byID[sp.SpanID] = sp
	}
	find := func(name string) *trace.SpanRecord {
		for _, sp := range joined.Spans {
			if sp.Name == name {
				return sp
			}
		}
		t.Fatalf("span %q missing from joined trace: %v", name, names)
		return nil
	}
	clientSpan := find("client.put")
	apiSpan := find("api.put")
	vaultSpan := find("vault.put")
	stageSpan := find("cluster.stage")
	if !apiSpan.Remote {
		t.Fatal("api span not marked remote")
	}
	if apiSpan.Parent != clientSpan.SpanID {
		t.Fatalf("api.put parent = %d, want client span %d", apiSpan.Parent, clientSpan.SpanID)
	}
	if vaultSpan.Parent != apiSpan.SpanID {
		t.Fatalf("vault.put parent = %d, want api span %d", vaultSpan.Parent, apiSpan.SpanID)
	}
	// cluster.stage hangs somewhere under vault.put (pipeline spans may
	// sit between); walk up to prove connectivity.
	for id := stageSpan.Parent; ; {
		sp, ok := byID[id]
		if !ok {
			t.Fatalf("cluster.stage not connected to vault.put: %v", names)
		}
		if sp.SpanID == vaultSpan.SpanID {
			break
		}
		id = sp.Parent
	}

	// And the server's text timeline shows the whole joined tree.
	code, text := p.get(t, "/traces?n=8&format=text")
	if code != 200 {
		t.Fatalf("/traces = %d", code)
	}
	for _, want := range []string{"client.put", "api.put", "vault.put", "cluster.stage"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/traces timeline missing %q:\n%s", want, text)
		}
	}
}

// Acceptance: an un-traced caller sending a W3C traceparent header by
// hand still gets a server-rooted trace joined to its IDs, and the
// response echoes the server's trace identity.
func TestTraceparentHeaderJoins(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	tr := p.tr

	req, err := http.NewRequest("GET", cl.BaseURL+"/v1/usage", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(api.TraceHeader); got == "" {
		t.Fatal("response missing X-Archive-Trace")
	}
	if got := resp.Header.Get("traceparent"); !strings.HasPrefix(got, "00-") {
		t.Fatalf("response traceparent = %q", got)
	}
	tc := tr.Recent(1)
	if len(tc) != 1 {
		t.Fatal("no server trace recorded")
	}
	// fedcba9876543210 is the incoming ID's low 64 bits.
	if tc[0].ID.String() != "fedcba9876543210" {
		t.Fatalf("server trace ID = %s, want fedcba9876543210", tc[0].ID)
	}
	root := tc[0].Spans[0]
	for _, sp := range tc[0].Spans {
		if sp.Parent == 0 || sp.Remote {
			root = sp
		}
	}
	if root.Parent != 0x00f067aa0ba902b7 {
		t.Fatalf("server root parent = %x, want f067aa0ba902b7", root.Parent)
	}
}

// Acceptance: errors surfaced to the client carry the server's trace ID
// so a support ticket can quote one string and an operator can pull the
// exact trace.
func TestClientErrorCarriesTraceID(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	tr := p.tr
	_, err := cl.GetBytes(context.Background(), "does/not/exist")
	if err == nil {
		t.Fatal("expected 404")
	}
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error type = %T", err)
	}
	if ae.Status != 404 || ae.TraceID == "" {
		t.Fatalf("error = %+v, want 404 with trace ID", ae)
	}
	if !strings.Contains(ae.Error(), "(trace "+ae.TraceID+")") {
		t.Fatalf("message lacks trace ID: %s", ae.Error())
	}
	// The quoted ID resolves to a real trace in the ring.
	found := false
	for _, tc := range tr.Recent(8) {
		if tc.ID.String() == ae.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in ring", ae.TraceID)
	}
}

// Acceptance: /metrics exposes the three labelled dimensions — per-tenant
// api latency, per-node cluster probes, per-encoding vault cache counts.
func TestMetricsLabeledFamilies(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	ctx := context.Background()
	for _, tenant := range []string{"acme", "umbrella"} {
		cl.Tenant = tenant
		if _, err := cl.Put(ctx, "obj", bytes.NewReader(pattern(512))); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.GetBytes(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
	}
	code, body := p.get(t, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`api_ok_count{tenant="acme"} 2`,
		`api_ok_count{tenant="umbrella"} 2`,
		`api_ok{tenant="acme",quantile="0.5"}`,
		`cluster_probe_total{node="00"}`,
		`vault_cache_miss_total{encoding="erasure_coding"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Snapshot view: per-tenant series are addressable by series name.
	snap := p.reg.Snapshot()
	if h := snap.Histograms[`api.ok{tenant="acme"}`]; h.Count != 2 {
		t.Fatalf(`api.ok{tenant="acme"} count = %d, want 2`, h.Count)
	}
}

// A served vault's dashboards must not read zero: one PUT and one GET
// through the api land once each in the vault's operation records, and
// their encode and decode feed the per-encoding rate histograms.
func TestServedOpsFeedEncodingMetrics(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	ctx := context.Background()
	if _, err := cl.Put(ctx, "obj", bytes.NewReader(pattern(2*testChunk))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBytes(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	snap := p.reg.Snapshot()
	for _, op := range []string{"vault.put.ok", "vault.get.ok", "api.put.ok", "api.get.ok"} {
		if got := snap.Histograms[op].Count; got != 1 {
			t.Errorf("%s count = %d, want 1", op, got)
		}
	}
	for _, rate := range []string{"encode.erasure_coding.mbps", "decode.erasure_coding.mbps"} {
		if h := snap.Histograms[rate]; h.Count == 0 {
			t.Errorf("%s is empty after a PUT and a GET: %+v", rate, h)
		}
	}
}

// Acceptance: /slo reports per-tenant compliance and error-budget burn
// fed by real traffic through the api server.
func TestSLOEndToEnd(t *testing.T) {
	cl, p := newObsService(t, api.Config{})
	ctx := context.Background()
	cl.Tenant = "acme"
	if _, err := cl.Put(ctx, "obj", bytes.NewReader(pattern(256))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBytes(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBytes(ctx, "missing"); err == nil {
		t.Fatal("expected 404")
	}

	code, body := p.get(t, "/slo")
	if code != 200 {
		t.Fatalf("/slo = %d:\n%s", code, body)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	if rep.Schema != obs.SLOReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	var acme *obs.SLOSubjectReport
	for i := range rep.Subjects {
		if rep.Subjects[i].Subject == "acme" {
			acme = &rep.Subjects[i]
		}
	}
	if acme == nil {
		t.Fatalf("no acme row in report: %+v", rep.Subjects)
	}
	status := map[string]obs.SLOStatus{}
	for _, st := range acme.SLOs {
		status[st.Name] = st
	}
	// A 404 is a client fault, not an availability miss: all requests
	// good, budget burn 0.
	if av := status["availability"]; av.Good != 3 || av.Bad != 0 || av.BudgetBurn != 0 {
		t.Fatalf("availability = %+v", av)
	}
	// Only the successful get observes latency.
	if lat := status["get.latency"]; lat.Good+lat.Bad != 1 {
		t.Fatalf("get.latency = %+v", lat)
	}
	// Both gets feed degraded.reads (a 404 is not a degraded read).
	if dr := status["degraded.reads"]; dr.Good != 2 || dr.Bad != 0 {
		t.Fatalf("degraded.reads = %+v", dr)
	}
}
