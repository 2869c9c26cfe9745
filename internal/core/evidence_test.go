package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/sig"
	"securearchive/internal/tstamp"
)

// Retrieval path vs. evidence path (DESIGN.md): a read checks the
// object's digest against the chain's opening memo; scrub-repair and
// ExportEvidence re-open the Pedersen commitment in full. These tests
// corrupt the chain's reference and require every path to notice. The
// mode follows the encoding (chainMode), so they run over Erasure, whose
// objects get a hash chain, and TraditionalEncryption, the same RS stripe
// under a commitment chain.

// chainModeEncodings stores one object of each chain mode.
var chainModeEncodings = []Encoding{Erasure{K: 4, N: 8}, TraditionalEncryption{K: 4, N: 8}}

// auditLayout writes one object in a given on-cluster layout and says
// which cluster object id and chunk hold its stripe.
type auditLayout struct {
	name string
	// write stores an object under id "obj" and returns its plaintext,
	// the cluster-side stripe id, and the chunk index to damage.
	write func(t *testing.T, v *Vault) (want []byte, stripeID string, chunk int)
}

const auditChunk = 2048

func auditLayouts() []auditLayout {
	payload := func(n int) []byte {
		b := make([]byte, n)
		rand.Read(b)
		return b
	}
	return []auditLayout{
		{"monolithic", func(t *testing.T, v *Vault) ([]byte, string, int) {
			data := payload(auditChunk / 2)
			if err := v.Put(context.Background(), "obj", data); err != nil {
				t.Fatal(err)
			}
			return data, "obj", 0
		}},
		{"chunked", func(t *testing.T, v *Vault) ([]byte, string, int) {
			data := payload(3*auditChunk + 100)
			if err := v.Put(context.Background(), "obj", data); err != nil {
				t.Fatal(err)
			}
			return data, "obj", 2
		}},
		{"streamed", func(t *testing.T, v *Vault) ([]byte, string, int) {
			// What an HTTP PUT produces: the chunk pipeline even for a
			// body smaller than one chunk.
			data := payload(auditChunk / 2)
			if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			return data, "obj", 0
		}},
	}
}

// readBoth reads the object through Get and through ReadTo.
func readBoth(v *Vault, id string) (got []byte, streamed bytes.Buffer, err error) {
	got, err = v.Get(context.Background(), id)
	if _, serr := v.ReadTo(context.Background(), id, &streamed); err == nil {
		err = serr
	}
	return got, streamed, err
}

// TestAuditPaths: with the chain's reference corrupted, (a) reads fail
// with the integrity-chain error, (b) scrub refuses to repair a damaged
// stripe from the recovered plaintext, (c) ExportEvidence refuses — a
// commitment because it no longer opens, a hash because link 0's
// signature no longer covers it (tstamp.Chain.VerifyOpening); with the
// corruption undone — and on an object never touched — all three succeed.
func TestAuditPaths(t *testing.T) {
	for _, lay := range auditLayouts() {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", lay.name, cached), func(t *testing.T) {
				for _, enc := range chainModeEncodings {
					t.Run(enc.Name(), func(t *testing.T) { auditPaths(t, lay, cached, enc) })
				}
			})
		}
	}
}

func auditPaths(t *testing.T, lay auditLayout, cached bool, enc Encoding) {
	c := cluster.New(8, nil)
	opts := []VaultOption{WithChunkSize(auditChunk)}
	if cached {
		opts = append(opts, WithReadCache(1<<20))
	}
	v, err := NewVault(c, enc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, stripeID, chunk := lay.write(t, v)
	rot := func() {
		overwrite(c, 3, cluster.ShardKey{Object: stripeID, Index: 3, Chunk: chunk}, []byte("rot"))
	}
	healthy := func(when string) {
		t.Helper()
		got, streamed, err := readBoth(v, "obj")
		if err != nil || !bytes.Equal(got, want) || !bytes.Equal(streamed.Bytes(), want) {
			t.Fatalf("%s: read: %v", when, err)
		}
		rot()
		rep, err := v.Scrub(context.Background(), "obj")
		if err != nil || !rep.Repaired {
			t.Fatalf("%s: scrub: repaired=%v err=%v", when, rep != nil && rep.Repaired, err)
		}
		blob, err := v.ExportEvidence("obj")
		if err != nil {
			t.Fatalf("%s: export: %v", when, err)
		}
		if _, err := tstamp.Unmarshal(blob); err != nil {
			t.Fatalf("%s: exported evidence: %v", when, err)
		}
	}
	healthy("untouched")

	// Corrupt the reference behind the vault's back. The scrub
	// above dropped any cache entry, so reads go to the chain.
	ref := v.Chain("obj").Links[0].Ref
	ref[len(ref)/2] ^= 0x10
	got, streamed, err := readBoth(v, "obj")
	if !errors.Is(err, tstamp.ErrOpeningFailed) || !strings.Contains(err.Error(), "integrity chain rejects") {
		t.Fatalf("read over a corrupt reference: %v", err)
	}
	if got != nil || streamed.Len() >= len(want) {
		t.Fatalf("read over a corrupt reference delivered %d/%d bytes (Get %d)", streamed.Len(), len(want), len(got))
	}
	if cached {
		if st := v.CacheStats(); st.Entries != 0 {
			t.Fatalf("rejected read populated the cache: %+v", st)
		}
	}
	rot()
	before := c.StoredBytes()
	rep, err := v.Scrub(context.Background(), "obj")
	if !errors.Is(err, tstamp.ErrOpeningFailed) || !strings.Contains(err.Error(), "integrity chain rejects recovered") {
		t.Fatalf("scrub over a corrupt reference: %v", err)
	}
	if rep == nil || rep.Repaired || rep.Clean() || c.StoredBytes() != before {
		t.Fatalf("scrub over a corrupt reference rewrote the stripe: %+v", rep)
	}
	if _, err := v.ExportEvidence("obj"); !errors.Is(err, tstamp.ErrOpeningFailed) {
		t.Fatalf("export over a corrupt reference: %v", err)
	}

	// Undo the corruption: the same object is good again, and the
	// damage the refused scrub left in place now gets repaired.
	ref[len(ref)/2] ^= 0x10
	healthy("restored")
}

// TestReadToWithholdsLastChunk: a streamed read of a multi-chunk object
// the chain rejects must stop before the final chunk, so no reader ever
// holds a complete rejected object.
func TestReadToWithholdsLastChunk(t *testing.T) {
	v, _ := chunkedTestVault(t, Erasure{K: 4, N: 8}, auditChunk)
	data := make([]byte, 3*auditChunk+100)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	v.Chain("obj").Links[0].Ref[0] ^= 1
	var w bytes.Buffer
	n, err := v.ReadTo(context.Background(), "obj", &w)
	if !errors.Is(err, tstamp.ErrOpeningFailed) {
		t.Fatalf("err = %v", err)
	}
	chunks := v.lookup("obj").chunks
	allButLast := len(data) - chunks[len(chunks)-1].enc.PlainLen
	if len(chunks) < 3 || int(n) != w.Len() || w.Len() != allButLast || !bytes.Equal(w.Bytes(), data[:allButLast]) {
		t.Fatalf("wrote %d bytes (reported %d), want every chunk but the last of %d (%d bytes)", w.Len(), n, len(chunks), allButLast)
	}
}

// TestReadToCacheTakesOwnership: the streamed miss path hands its decoded
// plaintext to the cache instead of a copy; the entry must hold the right
// bytes for monolithic, single-chunk and multi-chunk objects, and a later
// hit must serve them.
func TestReadToCacheTakesOwnership(t *testing.T) {
	c := cluster.New(8, nil)
	v, err := NewVault(c, Erasure{K: 4, N: 8}, WithChunkSize(auditChunk), WithReadCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range auditLayouts() {
		t.Run(lay.name, func(t *testing.T) {
			want, _, _ := lay.write(t, v)
			defer v.DeleteContext(context.Background(), "obj")
			for pass, wantHits := range []int64{0, 1} {
				before := v.CacheStats().Hits
				var w bytes.Buffer
				if _, err := v.ReadTo(context.Background(), "obj", &w); err != nil || !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if got := v.CacheStats().Hits - before; got != wantHits {
					t.Fatalf("pass %d: %d cache hits, want %d", pass, got, wantHits)
				}
				// A caller scribbling over what it was handed must not
				// reach the cached entry.
				for i := range w.Bytes() {
					w.Bytes()[i] = 0
				}
			}
			got, err := v.Get(context.Background(), "obj")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("hit after scribble: %v", err)
			}
		})
	}
}

// productionVault is the benchmark's configuration: enc on 14 nodes, the
// library's default group (no WithGroup), cache off so every Get is the
// miss path. The benchmark's own encoding is Erasure{10, 14}, which gets
// a hash chain; TraditionalEncryption{10, 14} is the same stripe under a
// commitment chain.
func productionVault(tb testing.TB, enc Encoding) *Vault {
	tb.Helper()
	v, err := NewVault(cluster.New(14, nil), enc)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// TestGetAllocsCommitmentNearHash is the read path's cost gate, stated
// in allocations so it holds on one core with no clock: a 2048-bit
// big.Int.Exp makes dozens of allocations, so a production-group Get of
// a commitment-chained object within a small constant of a hash-chained
// one ran no exponentiation. The mode follows the encoding, so the two
// objects are the same RS 10+4 stripe under TraditionalEncryption and
// Erasure, and the allocations their decoders differ by are taken out.
func TestGetAllocsCommitmentNearHash(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data := make([]byte, 16<<10)
	rand.Read(data)
	allocs := func(enc Encoding, mode tstamp.RefMode) (get, decode float64) {
		v := productionVault(t, enc)
		if _, err := v.PutReader(context.Background(), "obj", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if got := v.Chain("obj").Mode; got != mode {
			t.Fatalf("%s object has chain mode %d, want %d", enc.Name(), got, mode)
		}
		get = testing.AllocsPerRun(50, func() {
			if _, err := v.Get(context.Background(), "obj"); err != nil {
				t.Fatal(err)
			}
		})
		e, err := enc.Encode(data, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		decode = testing.AllocsPerRun(50, func() {
			if _, err := enc.Decode(e); err != nil {
				t.Fatal(err)
			}
		})
		return get, decode
	}
	hash, hashDec := allocs(Erasure{K: 10, N: 14}, tstamp.RefHash)
	commitment, commitDec := allocs(TraditionalEncryption{K: 10, N: 14}, tstamp.RefCommitment)
	t.Logf("allocs per 16 KiB Get: hash chain %.0f (decode %.0f), commitment chain %.0f (decode %.0f)", hash, hashDec, commitment, commitDec)
	if commitment-commitDec > hash-hashDec+2 {
		t.Fatalf("commitment-chained Get makes %.0f allocations beyond its decode, hash-chained %.0f: the read path is re-opening the commitment",
			commitment-commitDec, hash-hashDec)
	}
}

// TestHammerReadsDuringRenewAndScrub: 8 goroutines on ONE object — Get
// and ReadTo (cache hits and misses) against RenewIntegrity, which
// appends to the chain the readers verify against, and Scrub, which
// re-checks it and rewrites the stripe, under each chain mode. Run under
// -race: the memo is read without synchronisation by design.
func TestHammerReadsDuringRenewAndScrub(t *testing.T) {
	for _, enc := range chainModeEncodings {
		t.Run(enc.Name(), func(t *testing.T) { hammerReads(t, enc) })
	}
}

func hammerReads(t *testing.T, enc Encoding) {
	c := cluster.New(8, nil)
	v, err := NewVault(c, enc, WithChunkSize(auditChunk), WithReadCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2*auditChunk+17)
	rand.Read(data)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	const rounds = 150
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		run(func(int) error {
			got, err := v.Get(context.Background(), "obj")
			if err == nil && !bytes.Equal(got, data) {
				err = errors.New("Get returned wrong bytes")
			}
			return err
		})
		run(func(int) error {
			var w bytes.Buffer
			_, err := v.ReadTo(context.Background(), "obj", &w)
			if err == nil && !bytes.Equal(w.Bytes(), data) {
				err = errors.New("ReadTo wrote wrong bytes")
			}
			return err
		})
	}
	run(func(i int) error {
		scheme := sig.Ed25519
		if i%2 == 1 {
			scheme = sig.ECDSAP256
		}
		return v.RenewIntegrity(context.Background(), "obj", scheme)
	})
	run(func(i int) error {
		// Rot a shard so the scrub has something to repair (and so takes
		// the evidence path); readers route around it meanwhile.
		overwrite(c, i%8, cluster.ShardKey{Object: "obj", Index: i % 8, Chunk: i % 2}, []byte("rot"))
		_, err := v.Scrub(context.Background(), "obj")
		return err
	})
	wg.Wait()
	if got := v.Chain("obj").Len(); got != rounds+1 {
		t.Fatalf("chain has %d links, want %d", got, rounds+1)
	}
	if _, err := v.ExportEvidence("obj"); err != nil {
		t.Fatal(err)
	}
}
