package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"securearchive/internal/cluster"
)

// Cancellation regression suite: every vault operation that crosses the
// cluster must return promptly when its caller disconnects, surface an
// error satisfying errors.Is(err, context.Canceled), and leave no
// committed or staged shards behind — the bugs this PR fixed were
// retry backoffs and fault-injected latencies sleeping through
// cancellation, and chunk pipelines that never looked at ctx between
// stages.

// slowVault builds a vault over a cluster whose every node op carries
// injected latency, so operations are reliably in flight when the test
// cancels them.
func slowVault(t *testing.T, chunkSize int, latency time.Duration) (*Vault, *cluster.Cluster) {
	t.Helper()
	c := cluster.New(8, nil)
	t.Cleanup(func() { c.Close() })
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 1, Default: cluster.NodeFaults{Latency: latency}})
	v, err := NewVault(c, Erasure{K: 4, N: 8}, WithChunkSize(chunkSize))
	if err != nil {
		t.Fatal(err)
	}
	return v, c
}

// await bounds how long a canceled operation may take to return.
func await(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still running 10s after cancel", what)
		return nil
	}
}

func randBytes(t *testing.T, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := rand.Read(buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestPutChunkedCancelMidWrite cancels a multi-chunk put while its
// chunks are staging against slow nodes: the pipeline must abort
// between chunks, the stage must roll back (StoredBytes stays zero),
// and the id must not be registered.
func TestPutChunkedCancelMidWrite(t *testing.T) {
	v, c := slowVault(t, 1024, 20*time.Millisecond)
	data := randBytes(t, 8*1024) // 8 chunks x 8 shards, each shard write 20ms
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- v.Put(ctx, "victim", data) }()
	time.Sleep(50 * time.Millisecond) // a few shards in, most of the object to go
	cancel()
	err := await(t, "chunked put", done)
	if err == nil {
		t.Fatal("canceled put succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after aborted put; want 0 (orphaned staged shards)", got)
	}
	if _, err := v.Get(context.Background(), "victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after aborted put = %v; want ErrNotFound", err)
	}
	// The id must be reusable: the reservation rolled back with the stage.
	c.SetFaultPlan(nil)
	if err := v.Put(context.Background(), "victim", data); err != nil {
		t.Fatalf("re-put after aborted put: %v", err)
	}
}

// TestGetCancelMidDegraded cancels a read that is grinding through
// transient faults and slow probes: the caller must get the context
// error — not a DegradedError blaming the stripe for the caller's own
// departure — and must get it promptly despite the retry backoffs.
func TestGetCancelMidDegraded(t *testing.T) {
	v, c := slowVault(t, 1024, 0)
	data := randBytes(t, 4*1024)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	// Heavy transients + per-probe latency: the read will retry/backoff.
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 3, Default: cluster.NodeFaults{
		TransientProb: 0.9, Latency: 10 * time.Millisecond,
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.Get(ctx, "obj")
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	err := await(t, "degraded get", done)
	if err == nil {
		t.Fatal("canceled get succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	var de *DegradedError
	if errors.As(err, &de) {
		t.Fatalf("canceled get returned DegradedError %v; cancellation is not degradation", de)
	}
	// The object is intact: a clean read succeeds once faults clear.
	c.SetFaultPlan(nil)
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-cancel clean read: err=%v equal=%v", err, bytes.Equal(got, data))
	}
}

// TestRenewCancelRollsBack cancels a shares renewal mid-rewrite: the
// renewal must fail with the context error and the object must remain
// fully readable under its original encoding.
func TestRenewCancelRollsBack(t *testing.T) {
	v, c := slowVault(t, 1024, 0)
	data := randBytes(t, 4*1024)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 1, Default: cluster.NodeFaults{Latency: 15 * time.Millisecond}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- v.RenewShares(ctx, "obj") }()
	time.Sleep(120 * time.Millisecond) // read-back done, rewrite staging
	cancel()
	err := await(t, "renewal", done)
	if err == nil {
		t.Fatal("canceled renewal succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	c.SetFaultPlan(nil)
	if got := c.StoredBytes(); got != baseline {
		t.Fatalf("StoredBytes = %d after aborted renewal; want baseline %d", got, baseline)
	}
	got, err := v.Get(context.Background(), "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after aborted renewal: err=%v equal=%v", err, bytes.Equal(got, data))
	}
}

// TestScrubCancel cancels a scrub whose audit fetch is crawling over
// slow nodes; the cluster must be left exactly as it was.
func TestScrubCancel(t *testing.T) {
	v, c := slowVault(t, 1024, 0)
	data := randBytes(t, 4*1024)
	if err := v.Put(context.Background(), "obj", data); err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()
	c.SetFaultPlan(&cluster.FaultPlan{Seed: 1, Default: cluster.NodeFaults{Latency: 15 * time.Millisecond}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.Scrub(ctx, "obj")
		done <- err
	}()
	time.Sleep(40 * time.Millisecond)
	cancel()
	err := await(t, "scrub", done)
	if err == nil {
		t.Fatal("canceled scrub succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	c.SetFaultPlan(nil)
	if got := c.StoredBytes(); got != baseline {
		t.Fatalf("StoredBytes = %d after canceled scrub; want %d", got, baseline)
	}
}

// TestPutReaderCancelMidStream cancels a streaming put partway through
// the reader: prompt return, context error, no orphans, and the
// vault-wide buffered-bytes gauge drains back to zero.
func TestPutReaderCancelMidStream(t *testing.T) {
	v, c := slowVault(t, 1024, 20*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := v.PutReader(ctx, "victim", bytes.NewReader(randBytes(t, 16*1024)))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	err := await(t, "streaming put", done)
	if err == nil {
		t.Fatal("canceled streaming put succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after aborted streaming put; want 0", got)
	}
	if got := v.streamBuffered.Load(); got != 0 {
		t.Fatalf("streamBuffered = %d after aborted streaming put; want 0 (gauge leak)", got)
	}
}
