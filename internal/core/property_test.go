package core

// Property-style coverage for the encoding layer: every registered
// encoding must round-trip exactly at boundary sizes and from *random*
// k-of-n shard subsets (the fixed end-drop pattern in core_test.go only
// exercises one erasure shape), and the vault must serve concurrent
// workers — distinct ids and colliding ids — without torn reads. The
// concurrent tests are meaningful chiefly under -race, which the verify
// recipe runs.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
)

// propSeed derives the run's subset-sampling seed from crypto/rand and
// logs it so a failure reproduces: plug the logged value into
// mrand.NewSource in place of the fresh draw.
func propSeed(t *testing.T) int64 {
	t.Helper()
	var b [8]byte
	rand.Read(b[:])
	seed := int64(binary.LittleEndian.Uint64(b[:]) &^ (1 << 63))
	t.Logf("property seed: %d", seed)
	return seed
}

func TestPropertyEmptyDataRejected(t *testing.T) {
	for _, enc := range Figure1Encodings(cfgSmall()) {
		if _, err := enc.Encode(nil, rand.Reader); !errors.Is(err, ErrEmptyData) {
			t.Errorf("%s: empty encode: got %v, want ErrEmptyData", enc.Name(), err)
		}
		if _, err := enc.Encode([]byte{}, rand.Reader); !errors.Is(err, ErrEmptyData) {
			t.Errorf("%s: zero-length encode: got %v, want ErrEmptyData", enc.Name(), err)
		}
	}
}

// TestPropertyRoundTripSizesAndSubsets is the main property: for every
// encoding, boundary sizes (1 byte, odd, 64 KiB±1, and multi-MiB for the
// fast encodings) encode and then decode exactly from random min-sized
// shard subsets — not just the prefix the decoders happen to scan first.
func TestPropertyRoundTripSizesAndSubsets(t *testing.T) {
	rng := mrand.New(mrand.NewSource(propSeed(t)))
	sizes := []int{1, 37, 64<<10 - 1, 64 << 10, 64<<10 + 1}
	big := 2<<20 + 13
	for _, enc := range Figure1Encodings(cfgSmall()) {
		szs := sizes
		switch enc.(type) {
		case SecretSharing, PackedSharing, LRSS:
			// The Shamir-math encodings pay a per-byte polynomial cost that
			// makes multi-MiB objects too slow for the race-mode unit
			// suite; the stream/RS encodings take the big size.
		default:
			szs = append(append([]int(nil), sizes...), big)
		}
		n, min := enc.Shards()
		for _, size := range szs {
			data := make([]byte, size)
			rng.Read(data)
			e, err := enc.Encode(data, rand.Reader)
			if _, ok := enc.(EntropicEncryption); ok && size < 16 {
				// Entropic encryption's OTP key floor (entropic.ErrKeyTooShort)
				// makes sub-16-byte objects unencodable by design: it must
				// reject them cleanly, not process them.
				if err == nil {
					t.Fatalf("%s: encoded %d bytes below the security floor", enc.Name(), size)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s encode %d bytes: %v", enc.Name(), size, err)
			}
			trials := 3
			if size >= 64<<10-1 {
				trials = 2
			}
			if size >= big {
				trials = 1
			}
			for trial := 0; trial < trials; trial++ {
				perm := rng.Perm(n)
				shards := append([][]byte(nil), e.Shards...)
				for _, i := range perm[min:] {
					shards[i] = nil
				}
				got, err := enc.Decode(&Encoded{
					PlainLen:     e.PlainLen,
					Shards:       shards,
					ClientSecret: e.ClientSecret,
					PublicMeta:   e.PublicMeta,
				})
				if err != nil {
					t.Fatalf("%s size %d subset %v: %v", enc.Name(), size, perm[:min], err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s size %d subset %v: plaintext mismatch", enc.Name(), size, perm[:min])
				}
			}
		}
	}
}

// TestPropertyVaultConcurrentDistinctIDs drives every encoding's vault
// path with workers on disjoint ids: all ops must succeed and every read
// must return that id's exact payload. Run under -race this doubles as
// the striped registry's data-race check.
func TestPropertyVaultConcurrentDistinctIDs(t *testing.T) {
	for _, enc := range Figure1Encodings(cfgSmall()) {
		enc := enc
		t.Run(enc.Name(), func(t *testing.T) {
			t.Parallel()
			v, _ := testVault(t, enc)
			const workers, perWorker = 4, 3
			var wg sync.WaitGroup
			errs := make(chan error, workers*perWorker*2)
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						id := fmt.Sprintf("w%d-obj%d", w, i)
						data := []byte(fmt.Sprintf("payload %s %d", id, i))
						if err := v.Put(context.Background(), id, data); err != nil {
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
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if got := len(v.Objects()); got != workers*perWorker {
				t.Errorf("objects = %d, want %d", got, workers*perWorker)
			}
		})
	}
}

// TestPropertyVaultConcurrentSameID aims every worker at ONE id: exactly
// one Put must win (the rest see ErrExists), and every Get — racing the
// winning Put — must return either ErrNotFound (commit not yet visible)
// or the winner's exact bytes, never a torn intermediate.
func TestPropertyVaultConcurrentSameID(t *testing.T) {
	v, _ := testVault(t, SecretSharing{T: 4, N: 8})
	data := []byte("the one true payload for the contended id")
	const workers = 8
	var wins, exists, torn int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := v.Put(context.Background(), "contended", data)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrExists):
				exists++
			default:
				torn++
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := v.Get(context.Background(), "contended")
			if err == nil && !bytes.Equal(got, data) {
				mu.Lock()
				torn++
				mu.Unlock()
			} else if err != nil && !errors.Is(err, ErrNotFound) {
				mu.Lock()
				torn++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if wins != 1 || exists != workers-1 || torn != 0 {
		t.Fatalf("wins=%d exists=%d anomalies=%d, want 1/%d/0", wins, exists, torn, workers-1)
	}
	got, err := v.Get(context.Background(), "contended")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("final get: %v", err)
	}
}
