package api_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/group"
	"securearchive/internal/obs"
)

const testChunk = 4096

// newService stands up a vault (8 nodes, RS 4-of-8, small chunks so
// modest payloads stream multi-chunk) behind an httptest server and
// returns a client bound to it.
func newService(t *testing.T, cfg api.Config) (*core.Vault, *cluster.Cluster, *client.Client) {
	t.Helper()
	c := cluster.New(8, nil)
	t.Cleanup(func() { c.Close() })
	v, err := core.NewVault(c, core.Erasure{K: 4, N: 8},
		core.WithGroup(group.Test()), core.WithChunkSize(testChunk))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := httptest.NewServer(api.NewServer(v, cfg).Handler())
	t.Cleanup(srv.Close)
	return v, c, client.New(srv.URL)
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i>>9)
	}
	return b
}

// TestClientRoundTrip pushes a multi-chunk object through the full
// stack — Go client, HTTP, streaming ingest, erasure pipeline — and
// reads it back byte-identical, then exercises stat/list/scrub/usage/
// delete over the same wire.
func TestClientRoundTrip(t *testing.T) {
	_, _, cl := newService(t, api.Config{})
	ctx := context.Background()
	want := pattern(3*testChunk + 257) // >2x chunk, with a tail
	n, err := cl.Put(ctx, "docs/report.bin", bytes.NewReader(want))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if n != int64(len(want)) {
		t.Fatalf("put reported %d bytes; want %d", n, len(want))
	}
	got, err := cl.GetBytes(ctx, "docs/report.bin")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch after HTTP round trip")
	}
	st, err := cl.Stat(ctx, "docs/report.bin")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Bytes != int64(len(want)) || st.Chunks < 2 {
		t.Fatalf("stat = %+v; want Bytes=%d Chunks>=2", st, len(want))
	}
	ids, err := cl.List(ctx)
	if err != nil || len(ids) != 1 || ids[0] != "docs/report.bin" {
		t.Fatalf("list = %v, %v", ids, err)
	}
	rep, err := cl.Scrub(ctx, "docs/report.bin")
	if err != nil || len(rep.Missing) != 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub = %+v, %v", rep, err)
	}
	u, err := cl.Usage(ctx)
	if err != nil || u.Bytes != int64(len(want)) || u.Objects != 1 {
		t.Fatalf("usage = %+v, %v", u, err)
	}
	if err := cl.Delete(ctx, "docs/report.bin"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.GetBytes(ctx, "docs/report.bin"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("get after delete = %v; want 404", err)
	}
	u, err = cl.Usage(ctx)
	if err != nil || u.Bytes != 0 || u.Objects != 0 {
		t.Fatalf("usage after delete = %+v, %v; want zero", u, err)
	}
}

func isStatus(err error, status int) bool {
	var ae *api.Error
	return errors.As(err, &ae) && ae.Status == status
}

// TestTenantIsolation: two tenants use the same object id without
// seeing each other's bytes or list entries.
func TestTenantIsolation(t *testing.T) {
	_, _, cl := newService(t, api.Config{})
	ctx := context.Background()
	alice, bob := *cl, *cl
	alice.Tenant = "alice"
	bob.Tenant = "bob"
	wantA, wantB := pattern(600), bytes.Repeat([]byte{0xEE}, 600)
	if _, err := alice.PutBytes(ctx, "obj", wantA); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.PutBytes(ctx, "obj", wantB); err != nil {
		t.Fatalf("bob's put collided with alice's: %v", err)
	}
	gotA, _ := alice.GetBytes(ctx, "obj")
	gotB, _ := bob.GetBytes(ctx, "obj")
	if !bytes.Equal(gotA, wantA) || !bytes.Equal(gotB, wantB) {
		t.Fatal("tenants read each other's bytes")
	}
	idsA, err := alice.List(ctx)
	if err != nil || len(idsA) != 1 || idsA[0] != "obj" {
		t.Fatalf("alice list = %v, %v", idsA, err)
	}
	if err := bob.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if gotA, err := alice.GetBytes(ctx, "obj"); err != nil || !bytes.Equal(gotA, wantA) {
		t.Fatalf("bob's delete destroyed alice's object: %v", err)
	}
}

// TestByteQuotaMidStream: a PUT that blows the tenant byte budget
// partway through the body must fail without committing a partial
// object, and the failed upload must not consume quota.
func TestByteQuotaMidStream(t *testing.T) {
	_, c, cl := newService(t, api.Config{
		DefaultQuota: api.Quota{MaxBytes: 2 * testChunk},
	})
	ctx := context.Background()
	// No Content-Length (chunked transfer) so the fail-fast header check
	// cannot catch it — the quotaReader must, mid-stream.
	body := io.MultiReader(bytes.NewReader(pattern(8 * testChunk)))
	_, err := cl.Put(ctx, "huge", io.NopCloser(body))
	if !isStatus(err, http.StatusRequestEntityTooLarge) {
		t.Fatalf("over-quota put err = %v; want 413", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after rejected put; want 0 (partial object committed)", got)
	}
	// The inflight reservation must have been released: a within-budget
	// put still fits.
	if _, err := cl.PutBytes(ctx, "ok", pattern(testChunk)); err != nil {
		t.Fatalf("within-quota put after rejection: %v", err)
	}
}

// TestObjectQuota: the object-count budget returns 507 once exhausted.
func TestObjectQuota(t *testing.T) {
	_, _, cl := newService(t, api.Config{
		DefaultQuota: api.Quota{MaxObjects: 2},
	})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := cl.PutBytes(ctx, "obj-"+strconv.Itoa(i), pattern(256)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := cl.PutBytes(ctx, "obj-2", pattern(256))
	if !isStatus(err, http.StatusInsufficientStorage) {
		t.Fatalf("over-count put err = %v; want 507", err)
	}
	// Deleting frees a slot.
	if err := cl.Delete(ctx, "obj-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutBytes(ctx, "obj-2", pattern(256)); err != nil {
		t.Fatalf("put after delete freed a slot: %v", err)
	}
}

// TestRateLimit429: with a tiny bucket, back-to-back requests draw 429
// with a Retry-After hint; the client's replayable-body retry waits it
// out and succeeds, while a raw request sees the 429 directly.
func TestRateLimit429(t *testing.T) {
	reg := obs.NewRegistry()
	_, _, cl := newService(t, api.Config{
		Rate:     api.RateConfig{OpsPerSec: 5, Burst: 1},
		Registry: reg,
	})
	ctx := context.Background()
	if _, err := cl.PutBytes(ctx, "a", pattern(128)); err != nil {
		t.Fatal(err) // burst token
	}
	// Raw second request: bucket is empty, must see 429 + Retry-After.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/v1/usage", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("immediate second request status = %d; want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carried no Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q; want integer seconds >= 1", ra)
	}
	// Client with retries: PutBytes is replayable, so it should absorb
	// the 429s and land.
	cl.Retry429 = 5
	if _, err := cl.PutBytes(ctx, "b", pattern(128)); err != nil {
		t.Fatalf("replayable put did not survive rate limiting: %v", err)
	}
	if got := reg.Snapshot().Counters["api.rate_limited"]; got == 0 {
		t.Fatal("api.rate_limited counter never incremented")
	}
}

// TestStreamingMemoryBounded is the PR's acceptance check at the API
// layer: PUT an object 8x the vault chunk size through the HTTP stack
// and assert the vault's peak buffered plaintext stayed O(chunk) — the
// upload was streamed, never assembled in RAM.
func TestStreamingMemoryBounded(t *testing.T) {
	v, _, cl := newService(t, api.Config{})
	size := 8 * testChunk
	n, err := cl.Put(context.Background(), "big", bytes.NewReader(pattern(size)))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(size) {
		t.Fatalf("put reported %d; want %d", n, size)
	}
	peak := v.StreamPeakBuffered()
	if peak == 0 {
		t.Fatal("StreamPeakBuffered = 0; PUT did not go through the streaming path")
	}
	if limit := int64(6 * testChunk); peak > limit {
		t.Fatalf("peak buffered %d bytes for a %d-byte upload; want <= %d (O(chunk))",
			peak, size, limit)
	}
	got, err := cl.GetBytes(context.Background(), "big")
	if err != nil || !bytes.Equal(got, pattern(size)) {
		t.Fatalf("round-trip: err=%v", err)
	}
}

// TestClientDisconnectAbortsPut: a client that vanishes mid-upload must
// leave no committed or staged shards — the request context propagates
// into the vault and aborts the stage.
func TestClientDisconnectAbortsPut(t *testing.T) {
	_, c, cl := newService(t, api.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Put(ctx, "victim", pr)
		done <- err
	}()
	// Feed a few chunks so shards are staged, then hang up.
	pw.Write(pattern(3 * testChunk))
	time.Sleep(20 * time.Millisecond)
	cancel()
	pw.CloseWithError(context.Canceled)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("aborted put reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("put still running 10s after disconnect")
	}
	// The server side finishes asynchronously; give the abort a moment.
	deadline := time.Now().Add(5 * time.Second)
	for c.StoredBytes() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("StoredBytes = %d 5s after disconnect; staged shards orphaned", c.StoredBytes())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulShutdown: a live server drains in-flight requests and
// Shutdown returns within the grace window.
func TestGracefulShutdown(t *testing.T) {
	c := cluster.New(8, nil)
	defer c.Close()
	v, err := core.NewVault(c, core.Erasure{K: 4, N: 8},
		core.WithGroup(group.Test()), core.WithChunkSize(testChunk))
	if err != nil {
		t.Fatal(err)
	}
	svc := api.NewServer(v, api.Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cl := client.New("http://" + ln.Addr().String())
	if _, err := cl.PutBytes(context.Background(), "obj", pattern(2*testChunk)); err != nil {
		t.Fatal(err)
	}
	// Start a slow download, then shut down while it drains.
	body, _, err := cl.Get(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(shutCtx) }()
	// The in-flight GET must still complete.
	got, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatalf("in-flight read during shutdown: %v", err)
	}
	if !bytes.Equal(got, pattern(2*testChunk)) {
		t.Fatal("in-flight read corrupted during shutdown")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v; want within grace window", elapsed)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v; want ErrServerClosed", err)
	}
	// New connections are refused after shutdown.
	if _, err := cl.Usage(context.Background()); err == nil {
		t.Fatal("request succeeded after shutdown")
	}
}

// TestObjectIDLengthCap: ids are capped at 1024 bytes with a 400 before
// anything is ingested — an unbounded id used to reach the disk store's
// log, whose records cannot carry one past 64 KiB — and an id at the cap
// still round-trips.
func TestObjectIDLengthCap(t *testing.T) {
	_, c, cl := newService(t, api.Config{})
	ctx := context.Background()
	for _, n := range []int{1025, 70000} {
		_, err := cl.PutBytes(ctx, strings.Repeat("k", n), []byte("body"))
		if !isStatus(err, http.StatusBadRequest) {
			t.Fatalf("PUT with a %d-byte id: %v, want 400", n, err)
		}
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("refused PUTs left %d bytes stored", got)
	}
	id := strings.Repeat("k", 1024)
	if _, err := cl.PutBytes(ctx, id, []byte("body")); err != nil {
		t.Fatalf("PUT with a 1024-byte id: %v", err)
	}
	if got, err := cl.GetBytes(ctx, id); err != nil || string(got) != "body" {
		t.Fatalf("GET with a 1024-byte id: %q, %v", got, err)
	}
}

// BenchmarkAPIPut16KiB is one small PUT through the whole service on
// loopback — client, HTTP, tenant accounting, the vault's streamed put
// with its hash chain (an Erasure object's), RS 10+4 onto a mem store:
// the benchmark's ingest_small without the fsync.
func BenchmarkAPIPut16KiB(b *testing.B) {
	c := cluster.New(14, nil)
	defer c.Close()
	v, err := core.NewVault(c, core.Erasure{K: 10, N: 14})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(v, api.Config{Registry: obs.NewRegistry()}).Handler())
	defer srv.Close()
	cl := client.New(srv.URL)
	ctx := context.Background()
	body := pattern(16 << 10)
	if _, err := cl.PutBytes(ctx, "warm", body); err != nil { // connection, fixed-base tables
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PutBytes(ctx, "o"+strconv.Itoa(i), body); err != nil {
			b.Fatal(err)
		}
	}
}
