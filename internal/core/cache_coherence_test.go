package core

// The cache-coherence battery. Three complementary attacks on the read
// cache's correctness claim ("a cached read is indistinguishable from an
// uncached one"):
//
//   - TestDifferentialCachedVsUncached drives an identical operation
//     sequence through a cache-enabled and a cache-disabled vault — same
//     encoding, same backend, same seeded randomness — and requires
//     byte-identical results from every read AND byte-identical final
//     cluster snapshots. Runs the full Figure 1 encoding roster against
//     both store backends, covering monolithic, chunked and streamed
//     write shapes.
//
//   - TestCachePropertyInterleavings replays a long random interleaving
//     of Put / Get / ReadTo / Delete / RenewShares / AdvanceEpoch /
//     Scrub against an exact sequential model: after any prefix, a read
//     must return precisely the model's current content or ErrNotFound —
//     a cache serving a stale epoch or a deleted object's bytes fails
//     immediately.
//
//   - TestHammerCacheCoherence races Get-through-cache against Delete,
//     RenewShares, Scrub and AdvanceEpoch on overlapping ids under a
//     fault plan, with a monotonic-freshness oracle: payloads embed
//     their version, each id has a single writer (so the cluster's
//     version order is monotone), and a reader that observes version v
//     must never later be served v' < v. Freed or pre-renewal bytes
//     leaking out of the cache trip the oracle; the end-state audit
//     mirrors the PR-5 hammers (no staged orphans, StoredBytes back to
//     baseline, cache drained).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/obs"
	"securearchive/internal/store"
)

// diffPair drives the same operation into a cached and an uncached
// vault and fails the test on any observable divergence.
type diffPair struct {
	t      *testing.T
	cached *Vault
	plain  *Vault
	cc, pc *cluster.Cluster
}

func (d *diffPair) sameErr(op string, e1, e2 error) {
	d.t.Helper()
	if (e1 == nil) != (e2 == nil) {
		d.t.Fatalf("%s: cached err=%v, uncached err=%v", op, e1, e2)
	}
}

func (d *diffPair) put(id string, data []byte) {
	d.t.Helper()
	d.sameErr("put "+id, d.cached.Put(context.Background(), id, data), d.plain.Put(context.Background(), id, data))
}

func (d *diffPair) putReader(id string, data []byte) {
	d.t.Helper()
	_, e1 := d.cached.PutReader(context.Background(), id, bytes.NewReader(data))
	_, e2 := d.plain.PutReader(context.Background(), id, bytes.NewReader(data))
	d.sameErr("putReader "+id, e1, e2)
}

// get reads id from both vaults; when want is non-nil both reads must
// succeed with exactly those bytes, when nil both must fail alike.
func (d *diffPair) get(id string, want []byte) {
	d.t.Helper()
	g1, e1 := d.cached.Get(context.Background(), id)
	g2, e2 := d.plain.Get(context.Background(), id)
	d.sameErr("get "+id, e1, e2)
	if !bytes.Equal(g1, g2) {
		d.t.Fatalf("get %s: cached and uncached bytes diverge (%d vs %d bytes)", id, len(g1), len(g2))
	}
	if want != nil {
		if e1 != nil {
			d.t.Fatalf("get %s: %v", id, e1)
		}
		if !bytes.Equal(g1, want) {
			d.t.Fatalf("get %s: wrong content (%d bytes, want %d)", id, len(g1), len(want))
		}
	} else if e1 == nil {
		d.t.Fatalf("get %s: expected failure, both vaults succeeded", id)
	}
}

func (d *diffPair) readTo(id string, want []byte) {
	d.t.Helper()
	var b1, b2 bytes.Buffer
	_, e1 := d.cached.ReadTo(context.Background(), id, &b1)
	_, e2 := d.plain.ReadTo(context.Background(), id, &b2)
	d.sameErr("readTo "+id, e1, e2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		d.t.Fatalf("readTo %s: cached and uncached bytes diverge", id)
	}
	if want != nil && !bytes.Equal(b1.Bytes(), want) {
		d.t.Fatalf("readTo %s: wrong content", id)
	}
}

func (d *diffPair) renew(id string) {
	d.t.Helper()
	d.sameErr("renew "+id, d.cached.RenewShares(context.Background(), id), d.plain.RenewShares(context.Background(), id))
}

func (d *diffPair) scrub(id string) {
	d.t.Helper()
	_, e1 := d.cached.Scrub(context.Background(), id)
	_, e2 := d.plain.Scrub(context.Background(), id)
	d.sameErr("scrub "+id, e1, e2)
}

func (d *diffPair) del(id string) {
	d.t.Helper()
	d.sameErr("delete "+id, d.cached.DeleteContext(context.Background(), id), d.plain.DeleteContext(context.Background(), id))
}

func (d *diffPair) advanceEpoch() {
	d.cc.AdvanceEpoch()
	d.pc.AdvanceEpoch()
}

// snapshotsEqual requires the two clusters to hold byte-identical shard
// sets on every node — the strongest statement that the cache changed
// nothing about what reaches storage. When byteExact is false (the
// encoding draws randomness the vault cannot inject, so shard bytes
// differ run-to-run even without a cache) the check degrades to
// structure: same keys, same epochs, same shard lengths.
func (d *diffPair) snapshotsEqual(nodes int, byteExact bool) {
	d.t.Helper()
	for n := 0; n < nodes; n++ {
		sa, err := d.cc.Snapshot(n)
		if err != nil {
			d.t.Fatal(err)
		}
		sb, err := d.pc.Snapshot(n)
		if err != nil {
			d.t.Fatal(err)
		}
		if len(sa) != len(sb) {
			d.t.Fatalf("node %d: cached cluster holds %d shards, uncached %d", n, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i].Key != sb[i].Key || sa[i].Epoch != sb[i].Epoch {
				d.t.Fatalf("node %d shard %d: key/epoch diverge: %+v/%d vs %+v/%d",
					n, i, sa[i].Key, sa[i].Epoch, sb[i].Key, sb[i].Epoch)
			}
			if len(sa[i].Data) != len(sb[i].Data) {
				d.t.Fatalf("node %d shard %+v: sizes diverge (%d vs %d)", n, sa[i].Key, len(sa[i].Data), len(sb[i].Data))
			}
			if byteExact && !bytes.Equal(sa[i].Data, sb[i].Data) {
				d.t.Fatalf("node %d shard %+v: bytes diverge", n, sa[i].Key)
			}
		}
	}
}

// encodingDeterministic probes whether enc produces identical shards for
// identical data under identically-seeded randomness. AONT-RS does not
// (its transform key comes from crypto/rand internally), so the
// differential snapshot check can only be structural for it.
func encodingDeterministic(enc Encoding) bool {
	data := fill("probe", 300)
	e1, err1 := enc.Encode(data, mrand.New(mrand.NewSource(9)))
	e2, err2 := enc.Encode(data, mrand.New(mrand.NewSource(9)))
	if err1 != nil || err2 != nil || len(e1.Shards) != len(e2.Shards) {
		return false
	}
	for i := range e1.Shards {
		if !bytes.Equal(e1.Shards[i], e2.Shards[i]) {
			return false
		}
	}
	return true
}

// diffClusters builds two same-backend clusters for a differential run.
func diffClusters(t *testing.T, backend string, nodes int) (a, b *cluster.Cluster) {
	t.Helper()
	if backend == "mem" {
		return cluster.New(nodes, nil), cluster.New(nodes, nil)
	}
	open := func() *cluster.Cluster {
		c, err := cluster.Open(nodes, nil, store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	return open(), open()
}

func TestDifferentialCachedVsUncached(t *testing.T) {
	// ObjectLen 256 keeps the entropic encoding's assumed min-entropy
	// below every payload used here (the smallest is 256 bytes).
	encs := Figure1Encodings(Figure1Config{N: 8, K: 4, T: 4, PackCount: 3, ObjectLen: 256})
	for _, backend := range []string{"mem", "disk"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			for _, enc := range encs {
				enc := enc
				t.Run(enc.Name(), func(t *testing.T) {
					cc, pc := diffClusters(t, backend, 8)
					// Both vaults draw from identically-seeded private
					// randomness streams. Reads consume no randomness, so
					// the streams stay in lockstep whether or not reads hit
					// the cache — which is what makes snapshot equality a
					// meaningful check rather than a coincidence.
					const seed = 42
					mk := func(c *cluster.Cluster, cacheBytes int64) *Vault {
						opts := []VaultOption{
							VaultOption(func(v *Vault) { v.rnd = mrand.New(mrand.NewSource(seed)) }),
							WithChunkSize(512),
							WithRegistry(obs.NewRegistry()),
						}
						if cacheBytes > 0 {
							opts = append(opts, WithReadCache(cacheBytes))
						}
						v, err := NewVault(c, enc, opts...)
						if err != nil {
							t.Fatal(err)
						}
						return v
					}
					d := &diffPair{
						t:      t,
						cached: mk(cc, 1<<20),
						plain:  mk(pc, 0),
						cc:     cc,
						pc:     pc,
					}

					mono := fill("mono", 400)      // monolithic (< chunk size)
					chunk := fill("chunk", 2048)   // 4 chunks — exercises prefetch
					stream := fill("stream", 1300) // streamed, 3 chunks

					d.put("mono", mono)
					d.put("chunk", chunk)
					d.putReader("stream", stream)

					// Double reads: the second Get/ReadTo of each id is the
					// cache-served one in the cached vault.
					for i := 0; i < 2; i++ {
						d.get("mono", mono)
						d.get("chunk", chunk)
						d.get("stream", stream)
						d.readTo("chunk", chunk)
						d.readTo("mono", mono)
					}

					// Mutators that must invalidate; reads after each stay
					// byte-identical.
					d.renew("mono")
					d.renew("chunk")
					d.get("mono", mono)
					d.get("chunk", chunk)

					d.advanceEpoch()
					d.get("mono", mono)
					d.readTo("chunk", chunk)

					d.scrub("mono")
					d.scrub("chunk")
					d.get("chunk", chunk)

					// Delete + re-put under the same id: a cache serving the
					// old generation diverges here.
					d.del("mono")
					d.get("mono", nil)
					mono2 := fill("mono-v2", 400)
					d.put("mono", mono2)
					d.get("mono", mono2)
					d.get("mono", mono2)

					d.snapshotsEqual(8, encodingDeterministic(enc))
				})
			}
		})
	}
}

// TestCachePropertyInterleavings replays a pseudo-random op sequence
// against an exact model of the vault's visible state, with the vault's
// Encoding rotating through Figure 1 before every write. Sequential
// execution makes every op's outcome fully determined: any read served
// from a stale cache entry — wrong epoch, pre-renewal generation,
// deleted object — is an immediate content mismatch.
func TestCachePropertyInterleavings(t *testing.T) {
	forEachBackend(t, 8, func(t *testing.T, c *cluster.Cluster) {
		v, err := NewVault(c, Erasure{K: 4, N: 8},
			WithReadCache(64<<10),
			WithChunkSize(512),
			WithRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		rng := mrand.New(mrand.NewSource(7))
		ids := []string{"p/a", "p/b", "p/c", "p/d"}
		model := make(map[string][]byte)
		gen := make(map[string]int)
		// Every Put and RenewShares writes under the next Figure 1
		// encoding, so the vault holds objects under different encodings
		// and renewals re-encode them.
		encs := Figure1Encodings(cfgSmall())
		writes := 0
		rotate := func() {
			v.Encoding = encs[writes%len(encs)]
			writes++
		}

		for op := 0; op < 400; op++ {
			id := ids[rng.Intn(len(ids))]
			switch rng.Intn(8) {
			case 0, 1: // Put — fresh content every generation
				rotate()
				gen[id]++
				// Sizes straddle the 512-byte chunk threshold so both the
				// monolithic and the chunked read path flow through the
				// cache during the run.
				data := fill(fmt.Sprintf("%s#%d", id, gen[id]), 300+rng.Intn(1200))
				err := v.Put(context.Background(), id, data)
				if _, exists := model[id]; exists {
					if !errors.Is(err, ErrExists) {
						t.Fatalf("op %d: put existing %s: err=%v, want ErrExists", op, id, err)
					}
				} else {
					if err != nil {
						t.Fatalf("op %d: put %s: %v", op, id, err)
					}
					model[id] = data
				}
			case 2, 3: // Get
				got, err := v.Get(context.Background(), id)
				if want, ok := model[id]; ok {
					if err != nil {
						t.Fatalf("op %d: get %s: %v", op, id, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("op %d: get %s: stale or torn content (%d bytes, want %d)", op, id, len(got), len(want))
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: get deleted %s: err=%v, want ErrNotFound", op, id, err)
				}
			case 4: // ReadTo
				var buf bytes.Buffer
				_, err := v.ReadTo(context.Background(), id, &buf)
				if want, ok := model[id]; ok {
					if err != nil {
						t.Fatalf("op %d: readTo %s: %v", op, id, err)
					}
					if !bytes.Equal(buf.Bytes(), want) {
						t.Fatalf("op %d: readTo %s: stale or torn content", op, id)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: readTo deleted %s: err=%v, want ErrNotFound", op, id, err)
				}
			case 5: // Delete
				err := v.DeleteContext(context.Background(), id)
				if _, ok := model[id]; ok {
					if err != nil {
						t.Fatalf("op %d: delete %s: %v", op, id, err)
					}
					delete(model, id)
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: delete absent %s: err=%v, want ErrNotFound", op, id, err)
				}
			case 6: // RenewShares — content survives, cached generation must not
				rotate()
				err := v.RenewShares(context.Background(), id)
				if _, ok := model[id]; ok {
					if err != nil {
						t.Fatalf("op %d: renew %s: %v", op, id, err)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: renew absent %s: err=%v, want ErrNotFound", op, id, err)
				}
			default: // AdvanceEpoch, occasionally a scrub
				c.AdvanceEpoch()
				if rng.Intn(4) == 0 {
					if _, err := v.Scrub(context.Background(), id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatalf("op %d: scrub %s: %v", op, id, err)
					}
				}
			}
		}

		// Drain: every surviving object reads back exactly per the model,
		// twice (second read cache-served).
		for id, want := range model {
			for i := 0; i < 2; i++ {
				got, err := v.Get(context.Background(), id)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("final get %s (pass %d): err=%v", id, i, err)
				}
			}
		}
	})
}

// cachePayload builds the versioned fixed-size payload the coherence
// hammer writes: the id and a zero-padded version lead, repeated to 512
// bytes, so a reader can both parse the version and verify the whole
// buffer against the expected template.
func cachePayload(id string, ver int) []byte {
	head := fmt.Sprintf("%s#%010d|", id, ver)
	return bytes.Repeat([]byte(head), 512/len(head)+1)[:512]
}

// cachePayloadVersion parses the version out of a payload written by
// cachePayload for id; ok is false on any shape mismatch.
func cachePayloadVersion(id string, p []byte) (int, bool) {
	lead := len(id) + 1
	if len(p) < lead+10 || string(p[:len(id)]) != id || p[len(id)] != '#' {
		return 0, false
	}
	v, err := strconv.Atoi(string(p[lead : lead+10]))
	if err != nil {
		return 0, false
	}
	return v, true
}

// casMax lifts a to at least v.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TestHammerCacheCoherence is the PR-5 hammer extended with the read
// cache and prefetch active (small chunk size makes every payload
// 2-chunk, so the prefetcher runs under -race too). Monotonic-freshness
// oracle: each id has exactly ONE writer cycling Delete → Put(v+1), so
// the cluster's committed version sequence per id is strictly
// increasing; a reader snapshots the highest version known committed
// BEFORE its Get and any successful read must return a version >= that
// floor. A cache entry surviving its Delete/Renew/re-Put would surface
// as a version below the floor or a template mismatch.
func TestHammerCacheCoherence(t *testing.T) {
	forEachBackend(t, 8, hammerCacheCoherence)
}

func hammerCacheCoherence(t *testing.T, c *cluster.Cluster) {
	c.SetFaultPlan(&cluster.FaultPlan{
		Seed:    99,
		Default: cluster.NodeFaults{TransientProb: 0.05},
	})
	v, err := NewVault(c, Erasure{K: 4, N: 8},
		WithReadCache(1<<20),
		WithChunkSize(256), // 512-byte payloads span 2 chunks → prefetch path
		WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()

	const (
		idCount   = 4
		writerOps = 20
		readerOps = 60
		epochOps  = 25
	)
	ids := make([]string, idCount)
	for i := range ids {
		ids[i] = fmt.Sprintf("hobj-%d", i)
	}
	// highest[i] is the largest version known COMMITTED for ids[i] —
	// advanced only after a successful Put or a successful read.
	highest := make([]atomic.Int64, idCount)

	var wg sync.WaitGroup
	fails := make(chan error, (idCount*writerOps+3*readerOps)*2)

	// One writer per id: Delete → Put(v+1) cycles with renewals and
	// scrubs mixed in. Single-writer-per-id is what makes the freshness
	// oracle sound: no old-version Put can be in flight behind a newer
	// one.
	for i := 0; i < idCount; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(i) + 1))
			id := ids[i]
			for ver := 1; ver <= writerOps; ver++ {
				if err := v.Put(context.Background(), id, cachePayload(id, ver)); err == nil {
					casMax(&highest[i], int64(ver))
				}
				switch rng.Intn(3) {
				case 0:
					_ = v.RenewShares(context.Background(), id)
				case 1:
					_, _ = v.Scrub(context.Background(), id)
				}
				// Writer also reads through the cache mid-cycle.
				if rng.Intn(2) == 0 {
					_, _ = v.Get(context.Background(), id)
				}
				if err := v.DeleteContext(context.Background(), id); err != nil && !errors.Is(err, ErrNotFound) {
					fails <- fmt.Errorf("delete %s: %w", id, err)
				}
			}
		}()
	}

	// Readers race Get (and ReadTo) through the cache against the
	// writers' mutations, checking the freshness floor on every success.
	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(r) + 100))
			for op := 0; op < readerOps; op++ {
				i := rng.Intn(idCount)
				id := ids[i]
				floor := highest[i].Load()
				var got []byte
				var err error
				if rng.Intn(3) == 0 {
					var buf bytes.Buffer
					_, err = v.ReadTo(context.Background(), id, &buf)
					got = buf.Bytes()
				} else {
					got, err = v.Get(context.Background(), id)
				}
				switch {
				case err == nil:
					ver, ok := cachePayloadVersion(id, got)
					if !ok || !bytes.Equal(got, cachePayload(id, ver)) {
						fails <- fmt.Errorf("read %s: torn or cross-wired payload", id)
						continue
					}
					if int64(ver) < floor {
						fails <- fmt.Errorf("read %s: STALE version %d served after %d was committed", id, ver, floor)
						continue
					}
					casMax(&highest[i], int64(ver))
				case errors.Is(err, ErrNotFound) || errors.Is(err, ErrDegraded):
					// Deleted by the writer, or fault-plan attrition.
				default:
					fails <- fmt.Errorf("read %s: %w", id, err)
				}
			}
		}()
	}

	// The epoch agitator invalidates the whole cache lazily over and
	// over while reads are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := mrand.New(mrand.NewSource(777))
		for op := 0; op < epochOps; op++ {
			c.AdvanceEpoch()
			if rng.Intn(2) == 0 {
				_, _ = v.Get(context.Background(), ids[rng.Intn(idCount)])
			}
		}
	}()

	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}

	// End-state audit, mirroring hammerOverlappingIDs.
	if n := c.StagedCount(); n != 0 {
		t.Errorf("%d orphaned staged shards after hammer", n)
	}
	for _, id := range v.Objects() {
		got, err := v.Get(context.Background(), id)
		if err != nil {
			if errors.Is(err, ErrDegraded) {
				continue
			}
			t.Errorf("surviving %s unreadable: %v", id, err)
			continue
		}
		ver, ok := cachePayloadVersion(id, got)
		if !ok || !bytes.Equal(got, cachePayload(id, ver)) {
			t.Errorf("surviving %s: payload mismatch", id)
		}
	}
	for _, id := range v.Objects() {
		if err := v.DeleteContext(context.Background(), id); err != nil {
			t.Errorf("final delete %s: %v", id, err)
		}
	}
	if got := c.StoredBytes(); got != baseline {
		t.Errorf("StoredBytes = %d after deleting everything, want baseline %d", got, baseline)
	}
	if n := c.StagedCount(); n != 0 {
		t.Errorf("%d staged shards after final deletes", n)
	}
	// Every id was invalidated by its final Delete: the cache must be
	// fully drained, not holding freed bytes.
	if st := v.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("cache not drained after deleting everything: %d entries, %d bytes", st.Entries, st.Bytes)
	}
}
