package api_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
)

// TestUsageReportsTenantCacheBytes runs the service over a cache-enabled
// vault and checks the per-tenant accounting surfaced at /v1/usage: a
// tenant's CacheBytes reflects exactly its own resident objects — filled
// by its reads, untouched by other tenants' traffic, and drained by its
// deletes.
func TestUsageReportsTenantCacheBytes(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(8, nil)
	t.Cleanup(func() { c.Close() })
	v, err := core.NewVault(c, core.Erasure{K: 4, N: 8},
		core.WithChunkSize(testChunk),
		core.WithReadCache(1<<20),
		core.WithCacheTenantShare(0.5),
		core.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewServer(v, api.Config{Registry: reg}).Handler())
	t.Cleanup(srv.Close)

	alice := client.New(srv.URL)
	alice.Tenant = "alice"
	bob := client.New(srv.URL)
	bob.Tenant = "bob"
	ctx := context.Background()

	aliceData := pattern(2 * testChunk) // chunked path
	bobData := pattern(testChunk / 2)   // monolithic path
	if _, err := alice.Put(ctx, "doc", bytes.NewReader(aliceData)); err != nil {
		t.Fatalf("alice put: %v", err)
	}
	if _, err := bob.Put(ctx, "doc", bytes.NewReader(bobData)); err != nil {
		t.Fatalf("bob put: %v", err)
	}

	// Nothing read yet — the cache fills on reads, not writes.
	u, err := alice.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if u.CacheBytes != 0 {
		t.Fatalf("alice cache bytes %d before any read, want 0", u.CacheBytes)
	}

	// Reads populate each tenant's residency with exactly its own
	// object's plaintext size.
	if _, err := alice.GetBytes(ctx, "doc"); err != nil {
		t.Fatalf("alice get: %v", err)
	}
	if _, err := bob.GetBytes(ctx, "doc"); err != nil {
		t.Fatalf("bob get: %v", err)
	}
	u, _ = alice.Usage(ctx)
	if u.CacheBytes != int64(len(aliceData)) {
		t.Fatalf("alice cache bytes = %d, want %d", u.CacheBytes, len(aliceData))
	}
	ub, _ := bob.Usage(ctx)
	if ub.CacheBytes != int64(len(bobData)) {
		t.Fatalf("bob cache bytes = %d, want %d", ub.CacheBytes, len(bobData))
	}

	// Delete invalidates: alice's residency drains without touching
	// bob's.
	if err := alice.Delete(ctx, "doc"); err != nil {
		t.Fatalf("alice delete: %v", err)
	}
	u, _ = alice.Usage(ctx)
	if u.CacheBytes != 0 {
		t.Fatalf("alice cache bytes = %d after delete, want 0", u.CacheBytes)
	}
	ub, _ = bob.Usage(ctx)
	if ub.CacheBytes != int64(len(bobData)) {
		t.Fatalf("bob cache bytes = %d after alice's delete, want %d", ub.CacheBytes, len(bobData))
	}
}
