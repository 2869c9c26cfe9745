package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/group"
	"securearchive/internal/store"
)

// iotaReader feeds a deterministic byte pattern of the given length in
// deliberately awkward read sizes (never aligned with the chunk size),
// so the streaming producer's refill loop is exercised for real.
type iotaReader struct {
	n    int
	off  int
	step int
}

func (r *iotaReader) Read(p []byte) (int, error) {
	if r.off >= r.n {
		return 0, io.EOF
	}
	max := r.step
	if max <= 0 || max > len(p) {
		max = len(p)
	}
	if rem := r.n - r.off; max > rem {
		max = rem
	}
	for i := 0; i < max; i++ {
		p[i] = byte((r.off + i) * 131)
	}
	r.off += max
	return max, nil
}

func iotaBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}

// TestPutReaderRoundTrip is the streaming differential property: for
// sizes straddling every chunk-boundary case (single chunk, exact
// multiple, sub-floor tail that folds into the previous chunk, proper
// tail chunk, many chunks), PutReader must store exactly what a slice
// put would, readable through both ReadTo and the slice Get path.
func TestPutReaderRoundTrip(t *testing.T) {
	const chunk = 2048
	sizes := []int{
		1,
		chunk - 1,
		chunk,
		chunk + 1,                  // tail 1 < chunkTailFloor: folds into chunk 1
		chunk + chunkTailFloor - 1, // largest folding tail
		chunk + chunkTailFloor,     // smallest standalone tail chunk
		3*chunk + 17,
		8 * chunk,
	}
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	for _, size := range sizes {
		id := fmt.Sprintf("obj-%d", size)
		want := iotaBytes(size)
		n, err := v.PutReader(context.Background(), id, &iotaReader{n: size, step: 733})
		if err != nil {
			t.Fatalf("PutReader(%d): %v", size, err)
		}
		if n != int64(size) {
			t.Fatalf("PutReader(%d) reported %d bytes", size, n)
		}
		// Slice read path must see the streamed object.
		got, err := v.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("Get(%d): %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%d): payload mismatch", size)
		}
		// Streaming read path.
		var buf bytes.Buffer
		rn, err := v.ReadTo(context.Background(), id, &buf)
		if err != nil {
			t.Fatalf("ReadTo(%d): %v", size, err)
		}
		if rn != int64(size) || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("ReadTo(%d): n=%d equal=%v", size, rn, bytes.Equal(buf.Bytes(), want))
		}
		info, err := v.Stat(id)
		if err != nil {
			t.Fatalf("Stat(%d): %v", size, err)
		}
		if info.PlainLen != int64(size) {
			t.Fatalf("Stat(%d).PlainLen = %d", size, info.PlainLen)
		}
		// Evidence chain must verify for streamed objects too.
		if err := v.Chain(id).VerifyData(want); err != nil {
			t.Fatalf("chain verify (%d): %v", size, err)
		}
	}
}

// TestReadToSlicePutObjects: ReadTo must serve objects written through
// the slice path, in one chunk and in several — the read side is one
// implementation, not a parallel streaming-only store.
func TestReadToSlicePutObjects(t *testing.T) {
	const chunk = 2048
	for _, tc := range []struct {
		name string
		cs   int
		size int
	}{
		{"mono", 4096, 4096},
		{"chunked", chunk, 3*chunk + 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, tc.cs)
			want := iotaBytes(tc.size)
			if err := v.Put(context.Background(), "obj", want); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			n, err := v.ReadTo(context.Background(), "obj", &buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(tc.size) || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("ReadTo: n=%d equal=%v", n, bytes.Equal(buf.Bytes(), want))
			}
		})
	}
}

// TestPutReaderEmpty: an empty stream must fail the same way an empty
// slice put does, and must not register the id or leak staged shards.
func TestPutReaderEmpty(t *testing.T) {
	v, c := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	_, err := v.PutReader(context.Background(), "empty", bytes.NewReader(nil))
	if err == nil {
		t.Fatal("PutReader of empty stream succeeded")
	}
	if !errors.Is(err, ErrEmptyData) {
		t.Fatalf("err = %v; want ErrEmptyData", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after failed empty put; want 0", got)
	}
	// The id must be free for reuse after the failure.
	if _, err := v.PutReader(context.Background(), "empty", bytes.NewReader([]byte("x"))); err != nil {
		t.Fatalf("re-put after empty failure: %v", err)
	}
}

// TestPutReaderDuplicate: streaming puts respect write-once semantics.
func TestPutReaderDuplicate(t *testing.T) {
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, 2048)
	if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(iotaBytes(100))); err != nil {
		t.Fatal(err)
	}
	_, err := v.PutReader(context.Background(), "obj", bytes.NewReader(iotaBytes(100)))
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate PutReader err = %v; want ErrExists", err)
	}
}

// TestPutReaderMemoryBounded is the acceptance check for streaming
// ingest: pushing an object 16x the chunk size through PutReader must
// keep the vault's peak buffered plaintext O(chunk) — bounded by the
// pipeline depth plus lookahead, not by the object size.
func TestPutReaderMemoryBounded(t *testing.T) {
	const chunk = 4096
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	size := 16 * chunk
	n, err := v.PutReader(context.Background(), "big", &iotaReader{n: size, step: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(size) {
		t.Fatalf("PutReader reported %d bytes; want %d", n, size)
	}
	peak := v.StreamPeakBuffered()
	if peak == 0 {
		t.Fatal("StreamPeakBuffered = 0; gauge not wired")
	}
	// Producer lookahead holds ≤2 chunks, the pipeline ≤pipelineDepth
	// encoded chunks, plus one in the consumer: 6 chunks is generous.
	if limit := int64(6 * chunk); peak > limit {
		t.Fatalf("StreamPeakBuffered = %d for a %d-byte object; want ≤ %d (O(chunk), not O(object))",
			peak, size, limit)
	}
	// And the full object must still round-trip.
	got, err := v.Get(context.Background(), "big")
	if err != nil || !bytes.Equal(got, iotaBytes(size)) {
		t.Fatalf("round-trip after memory-bound put: err=%v", err)
	}
}

// stripeTable is an object's stored shape: plaintext length and shard
// digests per chunk stripe.
type stripeTable struct {
	lens    []int
	digests [][][32]byte
}

func stripeTableOf(t *testing.T, v *Vault, id string) stripeTable {
	t.Helper()
	obj := v.lookup(id)
	if obj == nil {
		t.Fatalf("%s: not stored", id)
	}
	var st stripeTable
	for _, cm := range obj.chunks {
		st.lens = append(st.lens, cm.enc.PlainLen)
		st.digests = append(st.digests, cm.digests)
	}
	return st
}

// TestPutReaderProbeBoundaries walks body sizes across both buffer edges
// of the streamed put — the streamProbe first read and the chunk — from
// a reader that trickles one byte per Read and from one that hands over
// everything at once. Each must store the stripes (lengths and shard
// digests; RS is deterministic), the chain digest and the Get bytes that
// Put of the same slice stores.
func TestPutReaderProbeBoundaries(t *testing.T) {
	const chunk = 2 * streamProbe
	sizes := []int{
		0, 1,
		streamProbe - 1, streamProbe, streamProbe + 1,
		chunk - 1, chunk,
		chunk + chunkTailFloor - 1, chunk + chunkTailFloor,
		2 * chunk,
	}
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	for _, size := range sizes {
		want := iotaBytes(size)
		refID := fmt.Sprintf("slice-%d", size)
		refErr := v.Put(context.Background(), refID, want)
		for _, step := range []int{1, 0} { // 0: as much as the buffer takes
			id := fmt.Sprintf("stream-%d-step%d", size, step)
			n, err := v.PutReader(context.Background(), id, &iotaReader{n: size, step: step})
			if refErr != nil {
				if err == nil {
					t.Fatalf("size %d step %d: PutReader stored what Put refuses (%v)", size, step, refErr)
				}
				continue
			}
			if err != nil || n != int64(size) {
				t.Fatalf("size %d step %d: PutReader = %d, %v", size, step, n, err)
			}
			if got, ref := stripeTableOf(t, v, id), stripeTableOf(t, v, refID); !reflect.DeepEqual(got, ref) {
				t.Fatalf("size %d step %d: stripe lengths %v, Put stored %v (digests differ: %v)",
					size, step, got.lens, ref.lens, !reflect.DeepEqual(got.digests, ref.digests))
			}
			if err := v.Chain(id).VerifyData(want); err != nil {
				t.Fatalf("size %d step %d: chain: %v", size, step, err)
			}
			got, err := v.Get(context.Background(), id)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("size %d step %d: Get: %v (equal %v)", size, step, err, bytes.Equal(got, want))
			}
		}
	}
}

// readSizes is an iotaReader that records where each Read started and
// how large a buffer it was handed.
type readSizes struct {
	iotaReader
	reads [][2]int // offset, len(p)
}

func (r *readSizes) Read(p []byte) (int, error) {
	r.reads = append(r.reads, [2]int{r.off, len(p)})
	return r.iotaReader.Read(p)
}

// TestStreamedPutReadsNoChunkAfterLastFull: after a streamed put's last
// full chunk, what follows — EOF, a tail that folds, a short tail, one
// that fills the probe — is read through the probe-sized buffer, never a
// fresh chunk-sized one, and every body still stores what Put of the
// same slice stores.
func TestStreamedPutReadsNoChunkAfterLastFull(t *testing.T) {
	const chunk = 2 * streamProbe
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, chunk)
	for _, tail := range []int{0, 1, chunkTailFloor - 1, chunkTailFloor, streamProbe - 1, streamProbe, streamProbe + 1} {
		size := 2*chunk + tail
		want := iotaBytes(size)
		r := &readSizes{iotaReader: iotaReader{n: size}}
		id := fmt.Sprint("tail-", tail)
		if n, err := v.PutReader(context.Background(), id, r); err != nil || n != int64(size) {
			t.Fatalf("tail %d: PutReader = %d, %v", tail, n, err)
		}
		for _, rd := range r.reads {
			if rd[0] >= 2*chunk && rd[1] >= chunk {
				t.Fatalf("tail %d: a Read at offset %d got a %d-byte buffer after the last full chunk", tail, rd[0], rd[1])
			}
		}
		if err := v.Put(context.Background(), "ref-"+id, want); err != nil {
			t.Fatal(err)
		}
		if got, ref := stripeTableOf(t, v, id), stripeTableOf(t, v, "ref-"+id); !reflect.DeepEqual(got, ref) {
			t.Fatalf("tail %d: stripe lengths %v, Put stored %v", tail, got.lens, ref.lens)
		}
		if got, err := v.Get(context.Background(), id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("tail %d: Get: %v", tail, err)
		}
	}
}

// chunkRecorder is an Encoding that remembers every chunk buffer the
// writer hands its encoder.
type chunkRecorder struct {
	Encoding
	chunks [][]byte
}

func (r *chunkRecorder) Encode(data []byte, rnd io.Reader) (*Encoded, error) {
	r.chunks = append(r.chunks, data)
	return r.Encoding.Encode(data, rnd)
}

// TestStreamedPutPinsNoSpareBuffer: Erasure's data shards alias the
// chunk buffer the writer encodes, and the mem store keeps them, so a
// buffer with room to spare would stay alive behind the object for as
// long as it is stored. A 16 KiB streamed put (read into the streamProbe
// buffer) and a chunk with a folded 63-byte tail must each reach the
// encoder in a buffer of exactly their length, and the shard node 0
// holds must be that buffer itself: the bytes moved once.
func TestStreamedPutPinsNoSpareBuffer(t *testing.T) {
	const chunk = 2 * streamProbe
	for _, size := range []int{16 << 10, chunk + chunkTailFloor - 1} {
		rec := &chunkRecorder{Encoding: Erasure{K: 4, N: 8}}
		v, c := chunkedTestVault(t, rec, chunk)
		if _, err := v.PutReader(context.Background(), "obj", &iotaReader{n: size}); err != nil {
			t.Fatal(err)
		}
		if len(rec.chunks) != 1 {
			t.Fatalf("size %d: %d chunks encoded, want 1", size, len(rec.chunks))
		}
		buf := rec.chunks[0]
		if len(buf) != size || cap(buf) != size {
			t.Errorf("size %d: encoder got a %d-byte chunk in a %d-byte buffer", size, len(buf), cap(buf))
		}
		sh, err := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: "obj"})
		if err != nil {
			t.Fatal(err)
		}
		if &sh.Data[0] != &buf[0] {
			t.Errorf("size %d: node 0 holds a copy of the chunk, not the chunk", size)
		}
	}
}

// TestPutReaderSmallObjectAllocBytes gates what a sub-chunk streamed put
// allocates in the benchmark's shape (16 KiB body, RS 10+4, the default
// 1 MiB chunk): the probe buffer, not a chunk buffer — 1.1 MB before.
func TestPutReaderSmallObjectAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	v, err := NewVault(cluster.New(14, nil), Erasure{K: 10, N: 14}, WithGroup(group.Test()))
	if err != nil {
		t.Fatal(err)
	}
	data := iotaBytes(16 << 10)
	put := func(i int) {
		if _, err := v.PutReader(context.Background(), fmt.Sprintf("obj-%d", i), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
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
	per := (after.TotalAlloc - before.TotalAlloc) / puts
	t.Logf("16 KiB PutReader: %d bytes allocated per put", per)
	if per > 160<<10 {
		t.Fatalf("16 KiB PutReader allocates %d bytes, want <= 160 KB", per)
	}
}

// TestResidentBytesPerSmallObject gates what one stored 16 KiB object
// keeps on the heap in the benchmark's shape — production group, RS 10+4
// over 14 disk-store nodes — where resident set, not CPU, is what a
// doubled ingest rate runs into: the vault's entry and chain plus 14
// shards indexed in the store. Measured between forced collections it is
// 1.7 KB, since an Erasure object's chain is a hash chain with no
// opening; it was 4.0 KB with a 40-byte index entry in one map per node,
// 3.5 KB with the entry narrowed to 24 bytes, 2.5 KB with one
// stripe-keyed index for the whole store, and 2.1–2.3 KB with a
// commitment chain whose opening's r had shrunk from 256 to 32 bytes
// with the group's q.
func TestResidentBytesPerSmallObject(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c, err := cluster.Open(14, nil, store.Config{Backend: store.BackendDisk, Dir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := NewVault(c, Erasure{K: 10, N: 14})
	if err != nil {
		t.Fatal(err)
	}
	data := iotaBytes(16 << 10)
	put := func(i int) {
		if _, err := v.PutReader(context.Background(), fmt.Sprintf("bench/obj-%06d", i), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // twice: the first only ages sync.Pool contents
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const warm, objects = 200, 2000 // warm-up: tables, pools, first map growth
	for i := 0; i < warm; i++ {
		put(i)
	}
	before := heap()
	for i := warm; i < warm+objects; i++ {
		put(i)
	}
	per := int64(heap()-before) / objects
	runtime.KeepAlive(v) // the vault's half of an object's state stays counted
	t.Logf("resident heap per 16 KiB object: %d bytes", per)
	if per > 2500 {
		t.Fatalf("a stored 16 KiB object keeps %d bytes resident, want <= 2500", per)
	}
}
