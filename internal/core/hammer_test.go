package core

// The concurrency hammer: goroutines race Put / Get / Scrub /
// RenewShares / Delete on a small OVERLAPPING id set with a fault plan
// and epoch advances active, then the test audits the wreckage for the
// striped vault's structural invariants:
//
//   - no orphaned staged shards (every disperse committed or aborted),
//   - no mixed-epoch stripes (CommitStage stamps whole stripes),
//   - StoredBytes returns exactly to baseline once every object is
//     deleted — failures and aborts leaked nothing.
//
// Run under -race (the verify recipe does) this is the main stress
// check of the per-object locking design.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/store"
)

// forEachBackend runs the test body against both storage backends: the
// hammers and their invariant audits must hold identically whether the
// shards live in maps or in fsync-backed segments behind a WAL.
func forEachBackend(t *testing.T, nodes int, body func(t *testing.T, c *cluster.Cluster)) {
	t.Run("mem", func(t *testing.T) {
		body(t, cluster.New(nodes, nil))
	})
	t.Run("disk", func(t *testing.T) {
		c, err := cluster.Open(nodes, nil, store.Config{Backend: store.BackendDisk, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		body(t, c)
	})
}

func TestHammerOverlappingIDs(t *testing.T) {
	forEachBackend(t, 8, hammerOverlappingIDs)
}

func hammerOverlappingIDs(t *testing.T, c *cluster.Cluster) {
	c.SetFaultPlan(&cluster.FaultPlan{
		Seed:    99,
		Default: cluster.NodeFaults{TransientProb: 0.05},
	})
	enc := SecretSharing{T: 4, N: 8}
	v, err := NewVault(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()

	const (
		idCount   = 6
		workers   = 8
		opsPerGor = 25
	)
	// One fixed payload per id, all the same length: Shamir's stored size
	// is a deterministic function of plaintext length, so the
	// StoredBytes-returns-to-baseline audit is exact.
	payloads := make(map[string][]byte, idCount)
	for i := 0; i < idCount; i++ {
		id := fmt.Sprintf("obj-%d", i)
		p := bytes.Repeat([]byte(fmt.Sprintf("%s payload ", id)), 64)[:512]
		payloads[id] = p
	}
	ids := make([]string, 0, idCount)
	for id := range payloads {
		ids = append(ids, id)
	}

	var wg sync.WaitGroup
	fails := make(chan error, workers*opsPerGor)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mrand.New(mrand.NewSource(int64(w) + 1))
			for op := 0; op < opsPerGor; op++ {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(6) {
				case 0:
					// Puts race each other and deletes: success, ErrExists
					// and transient-exhausted dispersal errors are all
					// legitimate outcomes.
					_ = v.Put(context.Background(), id, payloads[id])
				case 1:
					got, err := v.Get(context.Background(), id)
					switch {
					case err == nil:
						if !bytes.Equal(got, payloads[id]) {
							fails <- fmt.Errorf("get %s: torn or cross-wired payload", id)
						}
					case errors.Is(err, ErrNotFound) || errors.Is(err, ErrDegraded):
						// Deleted by a peer, or fault-plan attrition.
					default:
						fails <- fmt.Errorf("get %s: %w", id, err)
					}
				case 2:
					if _, err := v.Scrub(context.Background(), id); err != nil &&
						!errors.Is(err, ErrNotFound) && !errors.Is(err, ErrDegraded) {
						// Transient exhaustion during the audit fetch or the
						// staged rewrite is fair game; anything else is not.
						var de *DegradedError
						if !errors.As(err, &de) && !errors.Is(err, cluster.ErrTransient) {
							t.Logf("scrub %s: %v", id, err)
						}
					}
				case 3:
					_ = v.RenewShares(context.Background(), id)
				case 4:
					_ = v.DeleteContext(context.Background(), id)
				default:
					c.AdvanceEpoch()
				}
			}
		}()
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}

	// Invariant 1: nothing left parked in staging areas.
	if n := c.StagedCount(); n != 0 {
		t.Errorf("%d orphaned staged shards after hammer", n)
	}

	// Invariant 2: every surviving object is readable, exact, and its
	// stripe is single-epoch across all nodes.
	survivors := v.Objects()
	epochs := make(map[string]map[int]bool)
	for node := 0; node < 8; node++ {
		shards, err := c.Snapshot(node)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			if epochs[sh.Key.Object] == nil {
				epochs[sh.Key.Object] = make(map[int]bool)
			}
			epochs[sh.Key.Object][sh.Epoch] = true
		}
	}
	for obj, es := range epochs {
		if len(es) != 1 {
			t.Errorf("object %s: mixed-epoch stripe %v", obj, es)
		}
	}
	for _, id := range survivors {
		got, err := v.Get(context.Background(), id)
		if err != nil {
			if errors.Is(err, ErrDegraded) {
				continue // fault-plan attrition, not a locking bug
			}
			t.Errorf("surviving %s unreadable: %v", id, err)
			continue
		}
		if !bytes.Equal(got, payloads[id]) {
			t.Errorf("surviving %s: payload mismatch", id)
		}
	}

	// Invariant 3: delete everything and the cluster is back to baseline
	// — no leaked shards from failed or aborted writes.
	for _, id := range survivors {
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
	if got := len(v.Objects()); got != 0 {
		t.Errorf("%d objects still registered after deleting everything", got)
	}
}

// TestHammerDistinctIDsWithDeletes drives disjoint per-worker ids
// through the full op set — no cross-worker contention, so every op's
// outcome is deterministic modulo fault-plan noise — and audits the same
// invariants. This variant catches stripe-registry races between
// *different* ids that hash into the same stripe.
func TestHammerDistinctIDsWithDeletes(t *testing.T) {
	forEachBackend(t, 8, hammerDistinctIDsWithDeletes)
}

func hammerDistinctIDsWithDeletes(t *testing.T, c *cluster.Cluster) {
	enc := Erasure{K: 4, N: 8}
	v, err := NewVault(c, enc)
	if err != nil {
		t.Fatal(err)
	}
	baseline := c.StoredBytes()
	const workers, perWorker = 8, 8
	var wg sync.WaitGroup
	fails := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				data := bytes.Repeat([]byte{byte(w), byte(i)}, 300)
				if err := v.Put(context.Background(), id, data); err != nil {
					fails <- fmt.Errorf("put %s: %w", id, err)
					continue
				}
				if got, err := v.Get(context.Background(), id); err != nil || !bytes.Equal(got, data) {
					fails <- fmt.Errorf("get %s: %v", id, err)
				}
				if _, err := v.Scrub(context.Background(), id); err != nil {
					fails <- fmt.Errorf("scrub %s: %w", id, err)
				}
				if err := v.RenewShares(context.Background(), id); err != nil {
					fails <- fmt.Errorf("renew %s: %w", id, err)
				}
				if i%2 == 0 {
					if err := v.DeleteContext(context.Background(), id); err != nil {
						fails <- fmt.Errorf("delete %s: %w", id, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}
	if n := c.StagedCount(); n != 0 {
		t.Errorf("%d orphaned staged shards", n)
	}
	want := workers * perWorker / 2
	if got := len(v.Objects()); got != want {
		t.Errorf("objects = %d, want %d", got, want)
	}
	for _, id := range v.Objects() {
		if err := v.DeleteContext(context.Background(), id); err != nil {
			t.Errorf("final delete %s: %v", id, err)
		}
	}
	if got := c.StoredBytes(); got != baseline {
		t.Errorf("StoredBytes = %d, want baseline %d", got, baseline)
	}
}
