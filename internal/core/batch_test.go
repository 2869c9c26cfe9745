package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/sig"
)

// flushMembers drives one deterministic multi-member flush through the
// vault-side batch path (the Batcher's leader election makes batch
// composition scheduling-dependent; tests of member semantics want a
// known batch). It returns the members' payloads keyed by id.
func flushMembers(t *testing.T, v *Vault, n int) map[string][]byte {
	t.Helper()
	batch := make([]*pendingPut, n)
	want := make(map[string][]byte, n)
	for i := range batch {
		data := make([]byte, 100+i*37)
		rand.Read(data)
		id := fmt.Sprintf("m%d", i)
		batch[i] = &pendingPut{id: id, data: data}
		want[id] = data
	}
	if err := v.putBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	for _, p := range batch {
		if p.err != nil {
			t.Fatalf("member %s: %v", p.id, p.err)
		}
	}
	return want
}

func TestBatchMembersRoundTrip(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	want := flushMembers(t, v, 8)
	if got := len(v.Objects()); got != 8 {
		t.Fatalf("objects = %d, want 8", got)
	}
	for id, data := range want {
		got, err := v.Get(context.Background(), id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("get %s: payload mismatch", id)
		}
	}
	if got := c.StagedCount(); got != 0 {
		t.Fatalf("%d shards left in staging", got)
	}
}

func TestBatchDuplicateFailsOnlyThatMember(t *testing.T) {
	v, _ := testVault(t, Erasure{K: 4, N: 8})
	if err := v.Put(context.Background(), "taken", []byte("already here")); err != nil {
		t.Fatal(err)
	}
	batch := []*pendingPut{
		{id: "fresh", data: []byte("new member")},
		{id: "taken", data: []byte("usurper")},
		{id: "taken", data: []byte("usurper 2")}, // duplicate within the batch too
	}
	if err := v.putBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if batch[0].err != nil {
		t.Fatalf("fresh member failed: %v", batch[0].err)
	}
	for _, p := range batch[1:] {
		if !errors.Is(p.err, ErrExists) {
			t.Fatalf("duplicate member: got %v, want ErrExists", p.err)
		}
	}
	got, err := v.Get(context.Background(), "taken")
	if err != nil || !bytes.Equal(got, []byte("already here")) {
		t.Fatalf("original clobbered: %v", err)
	}
	if got, err := v.Get(context.Background(), "fresh"); err != nil || !bytes.Equal(got, []byte("new member")) {
		t.Fatalf("fresh member: %v", err)
	}
}

// TestBatchDeleteFreesStripeWhenEmpty deletes members one by one: the
// blob stripe must survive (un-compacted) until the last member goes,
// then disappear from the nodes entirely.
func TestBatchDeleteFreesStripeWhenEmpty(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	want := flushMembers(t, v, 4)
	if err := v.DeleteContext(context.Background(), "m0"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(context.Background(), "m0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted member still readable: %v", err)
	}
	// Surviving members read fine from the un-compacted blob.
	for _, id := range []string{"m1", "m2", "m3"} {
		got, err := v.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, want[id]) {
			t.Fatalf("survivor %s after delete: %v", id, err)
		}
	}
	if c.StoredBytes() == 0 {
		t.Fatal("blob stripe freed while members remain")
	}
	for _, id := range []string{"m1", "m2", "m3"} {
		if err := v.DeleteContext(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("empty batch left %d bytes on nodes", got)
	}
}

// TestBatchScrubRepairsBlobStripe rots one blob shard: scrubbing any
// member must repair the shared stripe; a batchmate's scrub then finds
// it clean.
func TestBatchScrubRepairsBlobStripe(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	want := flushMembers(t, v, 3)
	// The blob's cluster id is internal; reach it through member 0.
	bs := v.lookup("m0").batch
	overwrite(c, 3, cluster.ShardKey{Object: bs.id, Index: 3}, []byte("rot"))
	rep, err := v.Scrub(context.Background(), "m0")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Repaired || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 3 {
		t.Fatalf("repair report: repaired=%v corrupt=%v", rep.Repaired, rep.Corrupt)
	}
	rep2, err := v.Scrub(context.Background(), "m1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() {
		t.Fatal("batchmate scrub found damage after repair")
	}
	for id, data := range want {
		got, err := v.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("member %s after repair: %v", id, err)
		}
	}
}

// TestBatchRenewSharesRenewsWholeBlob renews through one member and
// expects the shared stripe rewritten with every batchmate intact. Uses
// a randomized encoding — plain erasure re-encodes deterministically, so
// its renewal legitimately reproduces identical shards.
func TestBatchRenewSharesRenewsWholeBlob(t *testing.T) {
	v, c := testVault(t, SecretSharing{T: 4, N: 8})
	want := flushMembers(t, v, 3)
	bs := v.lookup("m1").batch
	before, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: bs.id, Index: 0})
	if err := v.RenewShares(context.Background(), "m1"); err != nil {
		t.Fatal(err)
	}
	after, _ := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: bs.id, Index: 0})
	if bytes.Equal(before.Data, after.Data) {
		t.Fatal("blob shard unchanged after renewal")
	}
	for id, data := range want {
		got, err := v.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("member %s after renewal: %v", id, err)
		}
	}
}

// TestBatchBlobSpansChunks: a blob larger than the chunk size is written
// like any object, as several chunk stripes. Every member round-trips,
// scrub through one member repairs rot in chunk 1, renewal rewrites
// every chunk, and releasing the last member frees every chunk's shards.
func TestBatchBlobSpansChunks(t *testing.T) {
	v, c := chunkedTestVault(t, SecretSharing{T: 4, N: 8}, 256)
	want := flushMembers(t, v, 6) // 1155 payload bytes: a 5-chunk blob
	bs := v.lookup("m0").batch
	if len(bs.chunks) < 2 {
		t.Fatalf("blob of %d bytes stored as %d chunk(s) at chunk size 256", bs.plainLen, len(bs.chunks))
	}
	readAll := func(when string) {
		t.Helper()
		for id, data := range want {
			got, err := v.Get(context.Background(), id)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: member %s: %v", when, id, err)
			}
		}
	}
	readAll("after flush")

	overwrite(c, 3, cluster.ShardKey{Object: bs.id, Index: 3, Chunk: 1}, []byte("rot"))
	rep, err := v.Scrub(context.Background(), "m2")
	if err != nil || !rep.Repaired || len(rep.Corrupt) != 1 || rep.Corrupt[0] != 3 {
		t.Fatalf("scrub of rot in chunk 1: rep=%+v err=%v", rep, err)
	}
	if rep, err := v.Scrub(context.Background(), "m4"); err != nil || !rep.Clean() {
		t.Fatalf("batchmate scrub after repair: rep=%+v err=%v", rep, err)
	}
	readAll("after repair")

	shard0 := func(ci int) []byte {
		sh, err := c.GetCtx(context.Background(), 0, cluster.ShardKey{Object: bs.id, Index: 0, Chunk: ci})
		if err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
		return sh.Data
	}
	before := make([][]byte, len(bs.chunks))
	for ci := range before {
		before[ci] = shard0(ci)
	}
	if err := v.RenewShares(context.Background(), "m1"); err != nil {
		t.Fatal(err)
	}
	for ci := range before {
		if bytes.Equal(before[ci], shard0(ci)) {
			t.Fatalf("chunk %d unchanged after renewal", ci)
		}
	}
	readAll("after renewal")

	for id := range want {
		if err := v.DeleteContext(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("empty multi-chunk batch left %d bytes on nodes", got)
	}
	if got := c.StagedCount(); got != 0 {
		t.Fatalf("%d shards left in staging", got)
	}
}

// TestBatchMemberIntegrityOps exercises the chain surface members share:
// renewal through one member is visible through its batchmates, and
// evidence exports work.
func TestBatchMemberIntegrityOps(t *testing.T) {
	v, _ := testVault(t, Erasure{K: 4, N: 8})
	flushMembers(t, v, 2)
	if err := v.RenewIntegrity("m0", sig.ECDSAP256); err != nil {
		t.Fatal(err)
	}
	if got := v.Chain("m1").Len(); got != 2 {
		t.Fatalf("batchmate chain length %d, want 2 (shared chain)", got)
	}
	if _, err := v.ExportEvidence("m1"); err != nil {
		t.Fatal(err)
	}
	if cost := v.StorageCost("m0"); cost < 1.9 || cost > 2.1 {
		t.Fatalf("member storage cost %.2f, want ~2 (8/4 erasure)", cost)
	}
}

// TestBatchDegradedMemberRead reads members with nodes down to the
// decode minimum, then past it.
func TestBatchDegradedMemberRead(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	want := flushMembers(t, v, 3)
	for _, n := range []int{0, 2, 5, 7} {
		c.SetOnline(n, false)
	}
	for id, data := range want {
		got, err := v.Get(context.Background(), id)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("degraded get %s: %v", id, err)
		}
	}
	c.SetOnline(1, false)
	if _, err := v.Get(context.Background(), "m0"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("starved member read: got %v, want ErrDegraded", err)
	}
}

func TestBatcherBasics(t *testing.T) {
	v, _ := testVault(t, Erasure{K: 4, N: 8})
	b := v.NewBatcher()
	data := []byte("small object through the batcher")
	if err := b.Put(context.Background(), "one", data); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get(context.Background(), "one")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	if err := b.Put(context.Background(), "one", data); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: got %v, want ErrExists", err)
	}
	// Above the bypass threshold the put routes around the batcher: the
	// object stores under its own id, not inside a blob.
	big := make([]byte, DefaultBatchBypassBytes+1)
	rand.Read(big)
	if err := b.Put(context.Background(), "big", big); err != nil {
		t.Fatal(err)
	}
	if v.lookup("big").batch != nil {
		t.Fatal("oversized put went through the batch path")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(context.Background(), "late", data); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-close put: got %v, want ErrBatcherClosed", err)
	}
}

// TestBatcherConcurrentHammer is the batcher under the PR 5 concurrency
// discipline: many workers pushing distinct small objects through one
// Batcher while others read back and delete — run under -race this is
// the group-commit leader handoff's data-race check. Every put must land
// exactly once and read back exactly.
func TestBatcherConcurrentHammer(t *testing.T) {
	v, c := testVault(t, Erasure{K: 4, N: 8})
	b := v.NewBatcher(WithBatchMaxMembers(8))
	const workers, perWorker = 16, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker*3)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-o%d", w, i)
				data := make([]byte, 64+rng.Intn(2048))
				rng.Read(data)
				if err := b.Put(context.Background(), id, data); err != nil {
					errs <- fmt.Errorf("put %s: %w", id, err)
					return
				}
				got, err := v.Get(context.Background(), id)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", id, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("get %s: payload mismatch", id)
					return
				}
				if i%3 == 2 {
					if err := v.DeleteContext(context.Background(), id); err != nil {
						errs <- fmt.Errorf("delete %s: %w", id, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	deleted := workers * (perWorker / 3)
	if got := len(v.Objects()); got != workers*perWorker-deleted {
		t.Errorf("objects = %d, want %d", got, workers*perWorker-deleted)
	}
	if got := c.StagedCount(); got != 0 {
		t.Errorf("%d shards left in staging", got)
	}
}

// TestBatcherScrubAllUnderTraffic mixes ScrubAll sweeps with batched
// writes — the lock-order (member → batch → stripe) stress.
func TestBatcherScrubAllUnderTraffic(t *testing.T) {
	v, _ := testVault(t, Erasure{K: 4, N: 8})
	b := v.NewBatcher()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				id := fmt.Sprintf("s%d-%d", w, i)
				if err := b.Put(context.Background(), id, []byte(id)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := v.ScrubAll(context.Background()); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := v.ScrubAll(context.Background()); err != nil {
		t.Fatal(err)
	}
}
