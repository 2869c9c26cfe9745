package api_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"securearchive/internal/api"
	"securearchive/internal/cluster"
	"securearchive/internal/core"
	"securearchive/internal/obs"
)

// TestTruncatedUploadStoresNothing: a client whose connection closes
// mid-body — whether it announced a Content-Length or sent the body
// chunked — gets nothing stored: the server sees the body end early and
// fails the put, rather than taking the bytes that came as the whole
// object.
func TestTruncatedUploadStoresNothing(t *testing.T) {
	body := pattern(5000)
	for _, tc := range []struct {
		name, header string
		body         []byte
	}{
		{"content-length", "Content-Length: 16384\r\n", body},
		{"chunked", "Transfer-Encoding: chunked\r\n", append([]byte(fmt.Sprintf("%x\r\n", len(body))), body...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c := cluster.New(8, nil)
			t.Cleanup(func() { c.Close() })
			v, err := core.NewVault(c, core.Erasure{K: 4, N: 8}, core.WithChunkSize(testChunk))
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(api.NewServer(v, api.Config{Registry: reg}).Handler())
			t.Cleanup(srv.Close)
			conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "PUT /v1/objects/victim HTTP/1.1\r\nHost: archive\r\n%s\r\n", tc.header)
			conn.Write(tc.body)
			conn.Close()
			// The handler's end is on record in api.{ok,err}{tenant}.
			deadline := time.Now().Add(10 * time.Second)
			for {
				snap := reg.Snapshot()
				ok, failed := snap.Histograms[`api.ok{tenant="default"}`].Count, snap.Histograms[`api.err{tenant="default"}`].Count
				if ok+failed > 0 {
					if ok != 0 {
						t.Fatalf("a truncated upload's put succeeded")
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no put finished 10s after the connection closed")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if ids, sb := v.Objects(), c.StoredBytes(); len(ids) != 0 || sb != 0 {
				t.Fatalf("after a truncated upload: objects %v, StoredBytes %d; want none", ids, sb)
			}
		})
	}
}

// cutBody is an upload body that ends early the way net/http reports
// it: its bytes, then io.ErrUnexpectedEOF.
type cutBody struct{ r io.Reader }

func (b cutBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// TestTruncatedBodyFailsThePut: a body that ends early fails the put
// with 400 by itself, with or without a Content-Length, on a request
// whose context is never cancelled — the case the closed connection
// above races against.
func TestTruncatedBodyFailsThePut(t *testing.T) {
	v, c, _ := newService(t, api.Config{})
	h := api.NewServer(v, api.Config{Registry: obs.NewRegistry()}).Handler()
	for _, length := range []int64{16384, -1} {
		req := httptest.NewRequest(http.MethodPut, "/v1/objects/victim", cutBody{bytes.NewReader(pattern(5000))})
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("Content-Length %d: a truncated body's put answered %d %s, want 400", length, rec.Code, rec.Body)
		}
		if ids, sb := v.Objects(), c.StoredBytes(); len(ids) != 0 || sb != 0 {
			t.Fatalf("Content-Length %d: objects %v, StoredBytes %d; want none", length, ids, sb)
		}
	}
}

// TestSmallPutReadsIntoExactBuffer gates what a 16 KiB PUT allocates in
// the service, in the benchmark's shape (RS 10+4, the default 1 MiB
// chunk). A body of announced length is read straight into a buffer of
// its size; a chunked one goes through the vault's 64 KiB probe buffer
// and is copied out of it, so it allocates that much more.
func TestSmallPutReadsIntoExactBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race for the alloc gate")
	}
	v, err := core.NewVault(cluster.New(14, nil), core.Erasure{K: 10, N: 14})
	if err != nil {
		t.Fatal(err)
	}
	h := api.NewServer(v, api.Config{Registry: obs.NewRegistry()}).Handler()
	data := pattern(16 << 10)
	perPut := func(sized bool) uint64 {
		put := func(i int) {
			var body io.Reader = bytes.NewReader(data)
			if !sized {
				body = io.MultiReader(body) // hides the length: a chunked upload
			}
			req := httptest.NewRequest(http.MethodPut, fmt.Sprintf("/v1/objects/obj-%v-%d", sized, i), body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusCreated {
				t.Fatalf("put: %d %s", rec.Code, rec.Body)
			}
		}
		put(-1)
		const puts = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < puts; i++ {
			put(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / puts
	}
	sized, chunked := perPut(true), perPut(false)
	t.Logf("16 KiB PUT: %d bytes allocated with Content-Length, %d chunked", sized, chunked)
	if sized+48<<10 > chunked {
		t.Fatalf("a 16 KiB PUT with Content-Length allocates %d bytes, chunked %d: want the 64 KiB probe gone", sized, chunked)
	}
}
