package memstore

import (
	"bytes"
	"sync"
	"testing"

	"securearchive/internal/store"
)

var key = store.ShardKey{Object: "obj", Index: 1, Chunk: 2}

// committed stages data under one token on node 0 and commits it.
func committed(t *testing.T, data []byte) *Store {
	t.Helper()
	s := New(2)
	if err := s.Node(0).Stage("tok", store.Shard{Key: key, Data: data}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.CommitStage("tok", 7); err != nil || n != 1 {
		t.Fatalf("CommitStage = %d, %v", n, err)
	}
	return s
}

// TestGetReturnsStagedBytes: Stage takes ownership of the slice it is
// handed and Get hands the same backing array back — no copy either way.
func TestGetReturnsStagedBytes(t *testing.T) {
	data := []byte("shard bytes")
	s := committed(t, data)
	sh, ok, err := s.Node(0).Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if &sh.Data[0] != &data[0] || len(sh.Data) != len(data) {
		t.Fatal("Get returned a copy of the staged bytes")
	}
	if sh.Epoch != 7 || sh.Key != key {
		t.Fatalf("Get = %+v, want epoch 7 under %v", sh, key)
	}
	if _, ok, err := s.Node(1).Get(key); ok || err != nil {
		t.Fatalf("Get on the other node = %v, %v; want absent", ok, err)
	}
}

// TestGetAllocatesNothing: a Get is a map lookup under the node lock.
func TestGetAllocatesNothing(t *testing.T) {
	s := committed(t, make([]byte, 4096))
	n := s.Node(0)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok, _ := n.Get(key); !ok {
			t.Fatal("shard missing")
		}
	}); allocs != 0 {
		t.Fatalf("Get allocates %.0f times, want 0", allocs)
	}
}

// TestCorruptIsCopyOnWrite: rot lands in the bytes at rest — the next Get
// sees it — but a slice an earlier Get returned keeps what it had.
func TestCorruptIsCopyOnWrite(t *testing.T) {
	data := []byte{0x00, 0xf0}
	s := committed(t, data)
	n := s.Node(0)
	before, _, _ := n.Get(key)
	if !n.Corrupt(key, 9) {
		t.Fatal("Corrupt refused a present shard")
	}
	if !bytes.Equal(before.Data, []byte{0x00, 0xf0}) || !bytes.Equal(data, []byte{0x00, 0xf0}) {
		t.Fatalf("Corrupt changed bytes a reader held: %x", before.Data)
	}
	after, _, _ := n.Get(key)
	if !bytes.Equal(after.Data, []byte{0x00, 0xf2}) {
		t.Fatalf("Get after Corrupt = %x, want 00f2", after.Data)
	}
	if n.Corrupt(key, 16) || n.Corrupt(store.ShardKey{Object: "absent"}, 0) {
		t.Fatal("Corrupt accepted a bit past the shard or an absent key")
	}
}

// TestConcurrentGetAndCorrupt: readers hash what Get returned while rot
// lands beside them. Every slice a reader holds must stay one of the
// versions the store ever held, unchanged for as long as it is held; run
// under -race, any in-place write to a returned slice is a reported race.
func TestConcurrentGetAndCorrupt(t *testing.T) {
	s := committed(t, make([]byte, 64))
	n := s.Node(0)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range rounds {
			n.Corrupt(key, i%(64*8))
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			for range rounds {
				sh, _, _ := n.Get(key)
				held := append([]byte(nil), sh.Data...)
				if !bytes.Equal(sh.Data, held) {
					t.Error("a held shard changed under its reader")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotCopies: the adversary's exfiltration is its own to modify.
func TestSnapshotCopies(t *testing.T) {
	s := committed(t, []byte("abc"))
	snap, err := s.Node(0).Snapshot()
	if err != nil || len(snap) != 1 {
		t.Fatalf("Snapshot = %d shards, %v", len(snap), err)
	}
	snap[0].Data[0] = 'X'
	sh, _, _ := s.Node(0).Get(key)
	if string(sh.Data) != "abc" {
		t.Fatalf("a write to the snapshot reached the store: %q", sh.Data)
	}
}
