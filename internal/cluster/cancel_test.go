package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryTransientCtxAbortsBackoff is the regression test for the
// sleep-through-cancellation bug: the retry loop (retryTransient) used
// to time.Sleep its backoff delay unconditionally, so an abandoned
// request kept the goroutine parked for the full schedule. The fixed loop selects on the
// context and must return promptly, wrapping the context error so both
// errors.Is(err, ErrRetryAborted) and errors.Is(err, context.Canceled)
// hold.
func TestRetryTransientCtxAbortsBackoff(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, BaseDelay: 30 * time.Second, MaxDelay: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- retryTransient(ctx, pol, func() error {
			attempts++
			return ErrTransient
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail into backoff
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retryTransient still sleeping 5s after cancel (backoff ignores ctx)")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry returned after %v; want prompt abort", elapsed)
	}
	if !errors.Is(err, ErrRetryAborted) {
		t.Fatalf("err = %v; want errors.Is ErrRetryAborted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d; want 1 (no retries after cancel)", attempts)
	}
}

// TestRetryTransientCtxPreCanceled: a context dead on arrival must not
// run the op at all.
func TestRetryTransientCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := retryTransient(ctx, DefaultRetry, func() error {
		ran = true
		return nil
	})
	if ran {
		t.Fatal("op ran under a pre-canceled context")
	}
	if !errors.Is(err, ErrRetryAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want ErrRetryAborted wrapping context.Canceled", err)
	}
}

// TestFaultLatencyAbortsOnCancel is the regression test for the second
// sleep-through-cancellation site: a fault plan's injected per-op
// latency used to be an unconditional sleep. A canceled caller must get
// out from under a slow node immediately.
func TestFaultLatencyAbortsOnCancel(t *testing.T) {
	c := New(4, nil)
	defer c.Close()
	c.SetFaultPlan(&FaultPlan{Seed: 1, Default: NodeFaults{Latency: 30 * time.Second}})
	key := ShardKey{Object: "x", Index: 0}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- c.PutStagedCtx(ctx, 0, "w", key, []byte("shard"))
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PutStagedCtx still blocked in injected latency 5s after cancel")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PutStagedCtx returned after %v; want prompt abort", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want errors.Is context.Canceled", err)
	}
	if got := c.StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes = %d after aborted put; want 0", got)
	}
}

// TestFetchStripeCtxCancelSetsCanceled: a stripe fetch abandoned by its
// caller must report Canceled (so vault reads surface the context
// error) rather than dressing the short stripe up as degradation.
func TestFetchStripeCtxCancelSetsCanceled(t *testing.T) {
	c := New(8, nil)
	defer c.Close()
	for i := 0; i < 8; i++ {
		if err := put(c, i, ShardKey{Object: "obj", Index: i}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.SetFaultPlan(&FaultPlan{Seed: 1, Default: NodeFaults{Latency: 30 * time.Second}})
	ctx, cancel := context.WithCancel(context.Background())
	resCh := make(chan *StripeResult, 1)
	go func() {
		resCh <- c.FetchChunkStripeCtx(ctx, "obj", 0, 8, 4, DefaultRetry, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var res *StripeResult
	select {
	case res = <-resCh:
	case <-time.After(5 * time.Second):
		t.Fatal("FetchChunkStripeCtx still probing 5s after cancel")
	}
	if res.Canceled == nil {
		t.Fatalf("res.Canceled = nil after canceled fetch (fetched %d)", res.Fetched)
	}
	if !errors.Is(res.Canceled, context.Canceled) {
		t.Fatalf("res.Canceled = %v; want errors.Is context.Canceled", res.Canceled)
	}
}
