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
	"securearchive/internal/group"
	"securearchive/internal/monitor"
	"securearchive/internal/obs"
	"securearchive/internal/obs/trace"
)

// newObsService wires every layer to ONE registry and ONE tracer — the
// production shape archivectl serve uses — so the tests below can watch
// a request cross client → HTTP → api → vault → cluster and come out as
// a single joined trace with labeled metrics on every level.
func newObsService(t *testing.T, cfg api.Config) (*client.Client, *api.Server, *obs.Registry, *trace.Tracer) {
	t.Helper()
	reg := obs.NewRegistry()
	tr := trace.New(reg)
	tr.SetEnabled(true)
	c := cluster.New(8, nil)
	c.UseRegistry(reg)
	t.Cleanup(func() { c.Close() })
	v, err := core.NewVault(c, core.Erasure{K: 4, N: 8},
		core.WithGroup(group.Test()), core.WithChunkSize(testChunk),
		core.WithRegistry(reg), core.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	cfg.Tracer = tr
	as := api.NewServer(v, cfg)
	srv := httptest.NewServer(as.Handler())
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	cl.Tracer = tr
	return cl, as, reg, tr
}

// monitorGet serves a monitor bound to the same registry/tracer/SLO
// table and fetches one path from it.
func monitorGet(t *testing.T, reg *obs.Registry, tr *trace.Tracer, slo *obs.SLOTable, path string) (int, string) {
	t.Helper()
	ms := &monitor.Server{Registry: reg, Tracer: tr, SLO: slo}
	srv := httptest.NewServer(ms.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + path)
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

// Acceptance: a traced client PUT produces ONE joined trace — the
// client span, the api span it became on the far side of the HTTP
// boundary, and the vault/cluster work under it — visible in the
// /traces?format=text timeline.
func TestCrossBoundaryTraceJoins(t *testing.T) {
	cl, _, reg, tr := newObsService(t, api.Config{})
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

	// And the monitor's text timeline shows the whole joined tree.
	code, text := monitorGet(t, reg, tr, nil, "/traces?n=8&format=text")
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
	cl, _, _, tr := newObsService(t, api.Config{})

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
	cl, _, _, tr := newObsService(t, api.Config{})
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

// Acceptance: /metrics exposes the three labeled families — per-tenant
// api requests, per-node cluster probes, per-encoding vault latency.
func TestMetricsLabeledFamilies(t *testing.T) {
	cl, _, reg, tr := newObsService(t, api.Config{})
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
	code, body := monitorGet(t, reg, tr, nil, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`api_requests_total{tenant="acme"} 2`,
		`api_requests_total{tenant="umbrella"} 2`,
		`cluster_probe_total{node="00"}`,
		`vault_put_ns{encoding="erasure_coding",quantile=`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Snapshot view: per-tenant series are addressable.
	snap := reg.Snapshot()
	if v, ok := snap.Series("api.requests", "acme"); !ok || v != 2 {
		t.Fatalf("api.requests{acme} = %d ok=%v", v, ok)
	}
}

// A served vault's dashboards must not read zero: one PUT and one GET
// through the api land once each in the per-encoding latency families,
// and the PUT's encode feeds the encode-rate histogram.
func TestServedOpsFeedEncodingMetrics(t *testing.T) {
	cl, _, reg, _ := newObsService(t, api.Config{})
	ctx := context.Background()
	if _, err := cl.Put(ctx, "obj", bytes.NewReader(pattern(2*testChunk))); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBytes(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, family := range []string{"vault.put.ns", "vault.get.ns"} {
		var count int64
		for _, se := range snap.LabeledHistograms[family].Series {
			if len(se.Labels) == 1 && se.Labels[0] == "erasure_coding" {
				count = se.Count
			}
		}
		if count != 1 {
			t.Errorf("%s{encoding=erasure_coding} count = %d, want 1", family, count)
		}
	}
	if h := snap.Histograms["encode.erasure_coding.mbps"]; h.Count == 0 {
		t.Errorf("encode.erasure_coding.mbps is empty after a PUT: %+v", h)
	}
}

// Acceptance: /slo reports per-tenant compliance and error-budget burn
// fed by real traffic through the api server.
func TestSLOEndToEnd(t *testing.T) {
	cl, as, reg, tr := newObsService(t, api.Config{})
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

	code, body := monitorGet(t, reg, tr, as.SLOTable(), "/slo")
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
