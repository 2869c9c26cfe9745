package core

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"securearchive/internal/cluster"
	"securearchive/internal/sig"
)

// TestVaultConcurrentPutGet hammers one vault from many goroutines:
// each stores its own object, reads it back, and renews it, while other
// goroutines concurrently read a pre-stored object. Run under -race this
// exercises the vault lock discipline and the parallel encode paths.
func TestVaultConcurrentPutGet(t *testing.T) {
	c := cluster.New(8, nil)
	v, err := NewVault(c, SecretSharing{T: 4, N: 8},
		WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	shared := make([]byte, 4096)
	rand.Read(shared)
	if err := v.Put(context.Background(), "shared", shared); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("obj-%d", w)
			data := make([]byte, 2048+w*17)
			rand.Read(data)
			if err := v.Put(context.Background(), id, data); err != nil {
				errs <- fmt.Errorf("%s: put: %w", id, err)
				return
			}
			// Duplicate Put must fail without corrupting state.
			if err := v.Put(context.Background(), id, data); err == nil {
				errs <- fmt.Errorf("%s: duplicate put accepted", id)
				return
			}
			got, err := v.Get(context.Background(), id)
			if err != nil {
				errs <- fmt.Errorf("%s: get: %w", id, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("%s: roundtrip mismatch", id)
				return
			}
			if err := v.RenewShares(context.Background(), id); err != nil {
				errs <- fmt.Errorf("%s: renew shares: %w", id, err)
				return
			}
			if err := v.RenewIntegrity(context.Background(), id, sig.Ed25519); err != nil {
				errs <- fmt.Errorf("%s: renew integrity: %w", id, err)
				return
			}
			// Concurrent reads of the shared object while others write.
			for r := 0; r < 3; r++ {
				got, err := v.Get(context.Background(), "shared")
				if err != nil {
					errs <- fmt.Errorf("shared get: %w", err)
					return
				}
				if !bytes.Equal(got, shared) {
					errs <- fmt.Errorf("shared object corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(v.Objects()); got != workers+1 {
		t.Fatalf("object count = %d, want %d", got, workers+1)
	}
	for w := 0; w < workers; w++ {
		id := fmt.Sprintf("obj-%d", w)
		if _, err := v.Get(context.Background(), id); err != nil {
			t.Fatalf("%s unreadable after concurrent phase: %v", id, err)
		}
	}
}
