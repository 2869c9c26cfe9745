package main

import (
	"bytes"
	"crypto/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestGetDropsRottedShards: get checks every shard against the manifest's
// digests before decoding, so one rotted shard still yields the original
// bytes, and rot on n−min+1 shards is an error, never wrong bytes.
func TestGetDropsRottedShards(t *testing.T) {
	for _, enc := range []string{"erasure", "shamir", "aes"} {
		t.Run(enc, func(t *testing.T) {
			dir := t.TempDir()
			in, store := filepath.Join(dir, "f.bin"), filepath.Join(dir, "s")
			data := make([]byte, 20000)
			rand.Read(data)
			if err := os.WriteFile(in, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cmdPut([]string{"-in", in, "-store", store, "-encoding", enc, "-n", "8", "-t", "4"})
			mpath := filepath.Join(store, "f.bin.manifest.json")
			m, _, err := openManifest(mpath)
			if err != nil {
				t.Fatal(err)
			}
			rot := func(i int) {
				b, err := os.ReadFile(m.shardPath(i))
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x01
				if err := os.WriteFile(m.shardPath(i), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			rot(0)
			out := filepath.Join(dir, "out")
			if err := get(mpath, out); err != nil {
				t.Fatalf("one rotted shard: %v", err)
			}
			if got, _ := os.ReadFile(out); !bytes.Equal(got, data) {
				t.Fatal("one rotted shard: recovered bytes differ from the input")
			}

			for i := 1; i < m.N-m.Min+1; i++ {
				rot(i)
			}
			out = filepath.Join(dir, "out-lost")
			if err := get(mpath, out); err == nil {
				t.Fatalf("%d of %d shards rotted (min %d): get succeeded", m.N-m.Min+1, m.N, m.Min)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatal("failed get left an output file")
			}
		})
	}
}
