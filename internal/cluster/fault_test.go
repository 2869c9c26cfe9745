package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"securearchive/internal/obs"
)

func TestFaultPlanTransientDeterministic(t *testing.T) {
	run := func() []bool {
		c := New(1, nil)
		put(c, 0, ShardKey{Object: "o", Index: 0}, []byte("x"))
		c.SetFaultPlan(&FaultPlan{Seed: 7, Default: NodeFaults{TransientProb: 0.5}})
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := c.GetCtx(context.Background(), 0, ShardKey{Object: "o", Index: 0})
			outcomes[i] = err == nil
			if err != nil && !errors.Is(err, ErrTransient) {
				t.Fatalf("unexpected fault class: %v", err)
			}
		}
		return outcomes
	}
	a, b := run(), run()
	saw := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identically seeded runs", i)
		}
		if !a[i] {
			saw = true
		}
	}
	if !saw {
		t.Fatal("p=0.5 over 64 ops injected nothing")
	}
}

func TestFaultPlanOfflineWindow(t *testing.T) {
	c := New(2, nil)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("x"))
	c.SetFaultPlan(&FaultPlan{
		Seed:  1,
		Nodes: map[int]NodeFaults{0: {Offline: []Window{{From: 1, To: 3}}}},
	})
	if _, err := c.GetCtx(context.Background(), 0, key); err != nil {
		t.Fatalf("epoch 0 outside window: %v", err)
	}
	c.AdvanceEpoch()
	if _, err := c.GetCtx(context.Background(), 0, key); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("epoch 1 inside window: %v", err)
	}
	if err := put(c, 0, key, []byte("y")); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("put inside window: %v", err)
	}
	// Node 1 has no entry and the Default is zero: unaffected.
	if err := put(c, 1, key, []byte("z")); err != nil {
		t.Fatalf("unplanned node faulted: %v", err)
	}
	c.AdvanceEpoch()
	c.AdvanceEpoch()
	if _, err := c.GetCtx(context.Background(), 0, key); err != nil {
		t.Fatalf("epoch 3 past window: %v", err)
	}
}

func TestFaultPlanFlakyWindow(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	put(c, 0, key, []byte("x"))
	c.SetFaultPlan(&FaultPlan{Seed: 3, Default: NodeFaults{
		TransientProb: 0,
		FlakyProb:     1.0,
		Flaky:         []Window{{From: 1, To: 2}},
	}})
	if _, err := c.GetCtx(context.Background(), 0, key); err != nil {
		t.Fatalf("outside flaky window: %v", err)
	}
	c.AdvanceEpoch()
	if _, err := c.GetCtx(context.Background(), 0, key); !errors.Is(err, ErrTransient) {
		t.Fatalf("inside flaky window: %v", err)
	}
}

func TestFaultPlanCorruptionIsPersistent(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	orig := []byte("pristine shard payload")
	put(c, 0, key, orig)
	c.SetFaultPlan(&FaultPlan{Seed: 9, Default: NodeFaults{CorruptProb: 1.0}})
	sh, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sh.Data, orig) {
		t.Fatal("p=1 corruption left shard intact")
	}
	// Bit rot is at-rest damage: clearing the plan still serves rot.
	c.SetFaultPlan(nil)
	sh2, err := c.GetCtx(context.Background(), 0, key)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sh2.Data, orig) {
		t.Fatal("corruption did not persist at rest")
	}
}

func TestStagedCommitAndAbort(t *testing.T) {
	c := New(2, nil)
	key0 := ShardKey{Object: "o", Index: 0}
	key1 := ShardKey{Object: "o", Index: 1}
	base := c.StoredBytes()
	if err := c.PutStagedCtx(context.Background(), 0, "s1", key0, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutStagedCtx(context.Background(), 1, "s1", key1, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	// Staged bytes occupy space but are invisible to Get.
	if c.StoredBytes() != base+8 {
		t.Fatalf("staged bytes not counted: %d", c.StoredBytes())
	}
	if _, err := c.GetCtx(context.Background(), 0, key0); !errors.Is(err, ErrNoSuchShard) {
		t.Fatalf("staged shard visible to Get: %v", err)
	}
	if n, _ := c.CommitStage("s1"); n != 2 {
		t.Fatalf("committed %d, want 2", n)
	}
	sh, err := c.GetCtx(context.Background(), 0, key0)
	if err != nil || string(sh.Data) != "aaaa" {
		t.Fatalf("committed shard: %q %v", sh.Data, err)
	}
	if c.StagedCount() != 0 {
		t.Fatal("stage leaked after commit")
	}

	// Abort path: bytes return to the committed baseline.
	base = c.StoredBytes()
	if err := c.PutStagedCtx(context.Background(), 0, "s2", key0, []byte("cccccccc")); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.AbortStage("s2"); n != 1 {
		t.Fatalf("aborted %d, want 1", n)
	}
	if c.StoredBytes() != base {
		t.Fatalf("abort left %d bytes, want %d", c.StoredBytes(), base)
	}
	sh, _ = c.GetCtx(context.Background(), 0, key0)
	if string(sh.Data) != "aaaa" {
		t.Fatal("abort damaged the live shard")
	}
}

func TestStagedForeignStageRefused(t *testing.T) {
	c := New(1, nil)
	key := ShardKey{Object: "o", Index: 0}
	if err := c.PutStagedCtx(context.Background(), 0, "writer-a", key, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Same stage re-staging is an idempotent retry.
	if err := c.PutStagedCtx(context.Background(), 0, "writer-a", key, []byte("a2")); err != nil {
		t.Fatalf("idempotent re-stage: %v", err)
	}
	// A different writer must not steal the key.
	if err := c.PutStagedCtx(context.Background(), 0, "writer-b", key, []byte("b")); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("foreign stage: %v", err)
	}
	c.AbortStage("writer-a")
	if err := c.PutStagedCtx(context.Background(), 0, "writer-b", key, []byte("b")); err != nil {
		t.Fatalf("stage free after abort: %v", err)
	}
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	fails := 2
	err := retryTransient(context.Background(), RetryPolicy{MaxAttempts: 4}, func() error {
		if fails > 0 {
			fails--
			return fmt.Errorf("wrapped: %w", ErrTransient)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry gave up early: %v", err)
	}
	// Non-transient errors are final.
	calls := 0
	err = retryTransient(context.Background(), RetryPolicy{MaxAttempts: 4}, func() error {
		calls++
		return ErrNodeDown
	})
	if !errors.Is(err, ErrNodeDown) || calls != 1 {
		t.Fatalf("hard error retried: %v after %d calls", err, calls)
	}
	// Exhaustion surfaces the transient error.
	err = retryTransient(context.Background(), RetryPolicy{MaxAttempts: 2}, func() error { return ErrTransient })
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retry: %v", err)
	}
}

func TestFetchStripeDegraded(t *testing.T) {
	c := New(8, nil)
	for i := 0; i < 8; i++ {
		put(c, i, ShardKey{Object: "o", Index: i}, []byte{byte(i)})
	}
	// Half the stripe offline: a 4-of-8 read must still complete.
	for _, id := range []int{0, 2, 4, 6} {
		c.SetOnline(id, false)
	}
	res := c.FetchChunkStripeCtx(context.Background(), "o", 0, 8, 4, DefaultRetry, nil)
	if res.Fetched < 4 {
		t.Fatalf("degraded read got %d/4", res.Fetched)
	}
	if !res.Degraded() {
		t.Fatal("read through offline nodes not reported degraded")
	}
	for i, sh := range res.Shards {
		if sh != nil && sh[0] != byte(i) {
			t.Fatalf("shard %d misindexed", i)
		}
	}
	// Validator rejections fall back to other nodes and are attributed.
	for _, id := range []int{0, 2, 4, 6} {
		c.SetOnline(id, true)
	}
	rejected := map[int]bool{1: true, 3: true}
	res = c.FetchChunkStripeCtx(context.Background(), "o", 0, 8, 4, DefaultRetry, func(i int, _ []byte) bool { return !rejected[i] })
	if res.Fetched < 4 {
		t.Fatalf("validator fallback got %d/4", res.Fetched)
	}
	if res.Shards[1] != nil || res.Shards[3] != nil {
		t.Fatal("rejected shards returned")
	}
	if len(res.Discarded) != 2 || res.Discarded[0] != 1 || res.Discarded[1] != 3 {
		t.Fatalf("discarded = %v, want [1 3]", res.Discarded)
	}
}

// TestResumeStripeProbesOnlyUntriedNodes: a resumed read vets the
// shards in hand, discards and attributes the bad ones, and tops the
// stripe back up from nodes the first read never tried — no node is
// fetched twice, and the stripe is counted degraded once.
func TestResumeStripeProbesOnlyUntriedNodes(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(8, nil)
	c.UseRegistry(reg)
	for i := 0; i < 8; i++ {
		put(c, i, ShardKey{Object: "o", Index: i}, []byte{byte(i)})
	}
	res := c.FetchChunkStripeCtx(context.Background(), "o", 0, 8, 4, DefaultRetry, nil)
	if res.Fetched < 4 || res.Degraded() {
		t.Fatalf("healthy read: fetched %d, degraded %v", res.Fetched, res.Degraded())
	}
	// Nodes 0..3 are always probed before four shards can be in hand.
	bad := map[int]bool{0: true, 1: true, 2: true}
	valid := func(i int, _ []byte) bool { return !bad[i] }
	for round := 0; round < 2; round++ {
		res = c.ResumeChunkStripeCtx(context.Background(), "o", 0, 4, DefaultRetry, res, valid)
		if res.Fetched < 4 {
			t.Fatalf("round %d: resumed read got %d/4", round, res.Fetched)
		}
		if fmt.Sprint(res.Discarded) != "[0 1 2]" {
			t.Fatalf("round %d: discarded = %v, want [0 1 2]", round, res.Discarded)
		}
		snap := reg.Snapshot()
		for i := 0; i < 8; i++ {
			probes := snap.Counters[fmt.Sprintf(`cluster.probe{node="%02d"}`, i)]
			discards := snap.Counters[fmt.Sprintf(`cluster.discard{node="%02d"}`, i)]
			if probes > 1 || (i < 4 && probes != 1) {
				t.Errorf("round %d: node %d probed %d times", round, i, probes)
			}
			want := int64(0)
			if bad[i] {
				want = 1
			}
			if discards != want {
				t.Errorf("round %d: node %d discards = %d, want %d", round, i, discards, want)
			}
			if sh := res.Shards[i]; sh != nil && (bad[i] || sh[0] != byte(i)) {
				t.Errorf("round %d: shard %d = %v", round, i, sh)
			}
		}
		if n := snap.Counters["cluster.fetch.degraded"]; n != 1 {
			t.Fatalf("round %d: cluster.fetch.degraded = %d, want 1", round, n)
		}
	}
}

func TestFetchStripeUnderTransients(t *testing.T) {
	c := New(6, nil)
	for i := 0; i < 6; i++ {
		put(c, i, ShardKey{Object: "o", Index: i}, []byte{byte(i)})
	}
	c.SetFaultPlan(&FaultPlan{Seed: 11, Default: NodeFaults{TransientProb: 0.4}})
	res := c.FetchChunkStripeCtx(context.Background(), "o", 0, 6, 3, DefaultRetry, nil)
	if res.Fetched < 3 {
		t.Fatalf("retrying stripe read got %d/3 under 40%% transients", res.Fetched)
	}
}

// TestMeteringConcurrentWithTraffic is the -race regression for the
// metering data race: metering reads race freely with traffic.
func TestMeteringConcurrentWithTraffic(t *testing.T) {
	c := New(4, nil)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.TotalBytesMoved()
			_ = c.Puts() + c.Gets()
			_ = c.StoredBytes()
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			key := ShardKey{Object: "o", Index: w}
			for i := 0; i < 200; i++ {
				put(c, w, key, []byte("payload"))
				c.GetCtx(context.Background(), w, key)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	<-monitorDone
	// 4 writers × 200 rounds, each staging and reading 7 bytes.
	if got := c.TotalBytesMoved(); got != 4*200*7*2 {
		t.Fatalf("metered %d bytes moved, want %d", got, 4*200*7*2)
	}
}
