package api_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"securearchive/internal/api"
	"securearchive/internal/api/client"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
)

// TestGetChainFailureReachesTheClient: a GET commits its status line and
// Content-Length before the vault has read anything, so the only way left
// to report an object the integrity chain rejects is a body that falls
// short of the announced length. The vault therefore checks the chain
// before it writes the final chunk. An HTTP client must see
// io.ErrUnexpectedEOF — never a complete 200 — the server must count a
// failed request, and the rejected plaintext must not enter the cache.
func TestGetChainFailureReachesTheClient(t *testing.T) {
	for _, size := range []int{testChunk / 4, 3*testChunk + 257} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%dB/cache=%d", size, cacheBytes), func(t *testing.T) {
				c := cluster.New(8, nil)
				t.Cleanup(func() { c.Close() })
				v, err := core.NewVault(c, core.Erasure{K: 4, N: 8}, core.WithChunkSize(testChunk), core.WithReadCache(cacheBytes))
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				srv := httptest.NewServer(api.NewServer(v, api.Config{Registry: reg}).Handler())
				t.Cleanup(srv.Close)
				cl := client.New(srv.URL)
				ctx := context.Background()
				want := pattern(size)
				if _, err := cl.Put(ctx, "doc", bytes.NewReader(want)); err != nil {
					t.Fatal(err)
				}

				// Corrupt the object's chain reference inside the vault:
				// an Erasure object's hash chain binds its digest there.
				ref := v.Chain(api.DefaultTenant + "/doc").Links[0].Ref
				ref[0] ^= 1
				errsBefore := reg.Snapshot().Histograms["api.get.err"].Count

				if got, err := cl.GetBytes(ctx, "doc"); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("client.GetBytes = %d bytes, %v; want io.ErrUnexpectedEOF", len(got), err)
				}
				// The same through a bare net/http client: the status line
				// said 200 and promised the full length.
				resp, err := http.Get(srv.URL + "/v1/objects/doc")
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(size) {
					t.Fatalf("status %d, Content-Length %d", resp.StatusCode, resp.ContentLength)
				}
				if !errors.Is(err, io.ErrUnexpectedEOF) || len(body) >= size {
					t.Fatalf("http.Get read %d of %d bytes, err %v; want a short body and io.ErrUnexpectedEOF", len(body), size, err)
				}
				if !bytes.Equal(body, want[:len(body)]) {
					t.Fatal("the bytes that were sent are not a prefix of the object")
				}

				if got := reg.Snapshot().Histograms["api.get.err"].Count - errsBefore; got != 2 {
					t.Fatalf("api.get.err moved by %d, want 2", got)
				}
				if st := v.CacheStats(); st != nil && (st.Entries != 0 || st.Bytes != 0) {
					t.Fatalf("rejected object entered the read cache: %+v", st)
				}

				// Undo it: the same GET completes.
				ref[0] ^= 1
				if got, err := cl.GetBytes(ctx, "doc"); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("get after restore: %v", err)
				}
			})
		}
	}
}
