package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"securearchive/internal/store"
	"securearchive/internal/store/memstore"
)

func key(obj string, idx, chunk int) store.ShardKey {
	return store.ShardKey{Object: obj, Index: idx, Chunk: chunk}
}

func mustOpen(t *testing.T, dir string, n int, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, n, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	// Direct put on node 0.
	if err := s.Node(0).Put(store.Shard{Key: key("a", 0, 0), Epoch: 4, Data: []byte("alpha")}); err != nil {
		t.Fatal(err)
	}
	// Staged stripe across all nodes, committed at epoch 7.
	for i := 0; i < 3; i++ {
		if err := s.Node(i).Stage("tok", store.Shard{Key: key("b", i, 0), Epoch: 1, Data: []byte{byte(i), 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.CommitStage("tok", 7); err != nil || n != 3 {
		t.Fatalf("CommitStage = %d, %v", n, err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		sh, ok, err := s.Node(0).Get(key("a", 0, 0))
		if err != nil || !ok || !bytes.Equal(sh.Data, []byte("alpha")) || sh.Epoch != 4 {
			t.Fatalf("%s: get a = %+v ok=%v err=%v", when, sh, ok, err)
		}
		for i := 0; i < 3; i++ {
			sh, ok, err := s.Node(i).Get(key("b", i, 0))
			if err != nil || !ok || sh.Epoch != 7 {
				t.Fatalf("%s: get b[%d] = %+v ok=%v err=%v", when, i, sh, ok, err)
			}
			if !bytes.Equal(sh.Data, []byte{byte(i), 1, 2}) {
				t.Fatalf("%s: b[%d] data = %v", when, i, sh.Data)
			}
		}
		if got := s.Node(0).StoredBytes(); got != 5+3 {
			t.Fatalf("%s: node0 StoredBytes = %d, want 8", when, got)
		}
	}
	check(s, "before close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	check(s2, "after reopen")
	if rep := s2.Recovery(); rep.OrphanedStages != 0 || rep.WALBytesDropped != 0 || rep.InvalidRefs != 0 {
		t.Fatalf("clean reopen recovery = %+v", rep)
	}
}

func TestOrphanedStageDiscardedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	for i := 0; i < 2; i++ {
		if err := s.Node(i).Stage("leak", store.Shard{Key: key("x", i, 0), Data: []byte("zzz")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Node(0).StagedCount(); got != 1 {
		t.Fatalf("StagedCount = %d", got)
	}
	s.Close() // syncs the WAL: the stage records ARE durable, just never committed
	s2 := mustOpen(t, dir, 2)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 2 {
		t.Fatalf("OrphanedStages = %d, want 2 (recovery = %+v)", rep.OrphanedStages, rep)
	}
	for i := 0; i < 2; i++ {
		if got := s2.Node(i).StagedCount(); got != 0 {
			t.Fatalf("node %d StagedCount after reopen = %d", i, got)
		}
		if _, ok, _ := s2.Node(i).Get(key("x", i, 0)); ok {
			t.Fatalf("orphaned stage visible on node %d", i)
		}
	}
	if got := s2.Node(0).StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes after orphan discard = %d", got)
	}
}

func TestAbortAndDeleteClearStaged(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	defer s.Close()
	nd := s.Node(0)
	if err := nd.Stage("t1", store.Shard{Key: key("a", 0, 0), Data: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AbortStage("t1"); err != nil || n != 1 {
		t.Fatalf("AbortStage = %d, %v", n, err)
	}
	if nd.StagedCount() != 0 {
		t.Fatal("abort left a staged entry")
	}
	// Delete must clear both the committed shard and a parked stage.
	if err := nd.Put(store.Shard{Key: key("b", 0, 0), Data: []byte("22")}); err != nil {
		t.Fatal(err)
	}
	if err := nd.Stage("t2", store.Shard{Key: key("b", 0, 0), Data: []byte("33")}); err != nil {
		t.Fatal(err)
	}
	if err := nd.Delete(key("b", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if nd.StagedCount() != 0 || nd.StoredBytes() != 0 {
		t.Fatalf("delete left staged=%d bytes=%d", nd.StagedCount(), nd.StoredBytes())
	}
	if _, ok, _ := nd.Get(key("b", 0, 0)); ok {
		t.Fatal("deleted shard still visible")
	}
	// The delete must hold across reopen too.
	s.Close()
	s2 := mustOpen(t, dir, 1)
	defer s2.Close()
	if _, ok, _ := s2.Node(0).Get(key("b", 0, 0)); ok {
		t.Fatal("deleted shard resurrected by replay")
	}
	if got := s2.Node(0).StoredBytes(); got != 0 {
		t.Fatalf("StoredBytes after reopen = %d", got)
	}
}

// stageStripe parks one shard per node under the token.
func stageStripe(t *testing.T, s *Store, obj, tok string, data []byte) {
	t.Helper()
	for i := 0; i < s.Nodes(); i++ {
		if err := s.Node(i).Stage(tok, store.Shard{Key: key(obj, i, 0), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashBeforeWALSyncRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "base", "t0", []byte("baseline"))
	if _, err := s.CommitStage("t0", 1); err != nil {
		t.Fatal(err)
	}
	stageStripe(t, s, "victim", "t1", []byte("doomed"))
	s.SetCrashPoint(CrashBeforeWALSync)
	if _, err := s.CommitStage("t1", 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CommitStage = %v, want ErrCrashed", err)
	}
	if err := s.Node(0).Put(store.Shard{Key: key("z", 0, 0), Data: []byte("x")}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	rep := s2.Recovery()
	if rep.WALBytesDropped == 0 {
		t.Fatalf("expected a torn WAL tail, recovery = %+v", rep)
	}
	if rep.OrphanedStages != 3 {
		t.Fatalf("OrphanedStages = %d, want 3", rep.OrphanedStages)
	}
	for i := 0; i < 3; i++ {
		if _, ok, _ := s2.Node(i).Get(key("victim", i, 0)); ok {
			t.Fatalf("uncommitted stripe visible on node %d", i)
		}
		sh, ok, err := s2.Node(i).Get(key("base", i, 0))
		if err != nil || !ok || sh.Epoch != 1 || !bytes.Equal(sh.Data, []byte("baseline")) {
			t.Fatalf("baseline stripe damaged on node %d: %+v ok=%v err=%v", i, sh, ok, err)
		}
	}
}

func TestCrashAfterWALSyncCommits(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "v", "t1", []byte("survives"))
	s.SetCrashPoint(CrashAfterWALSync)
	if _, err := s.CommitStage("t1", 5); !errors.Is(err, ErrCrashed) {
		t.Fatalf("CommitStage = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 0 || rep.Shards != 3 {
		t.Fatalf("recovery = %+v, want 3 committed shards, no orphans", rep)
	}
	for i := 0; i < 3; i++ {
		sh, ok, err := s2.Node(i).Get(key("v", i, 0))
		if err != nil || !ok || sh.Epoch != 5 || !bytes.Equal(sh.Data, []byte("survives")) {
			t.Fatalf("committed stripe lost on node %d: %+v ok=%v err=%v", i, sh, ok, err)
		}
	}
}

func TestCrashMidSegmentAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	if err := s.Node(0).Put(store.Shard{Key: key("keep", 0, 0), Epoch: 1, Data: []byte("kept-data")}); err != nil {
		t.Fatal(err)
	}
	s.SetCrashPoint(CrashMidSegmentAppend)
	err := s.Node(0).Put(store.Shard{Key: key("torn", 0, 0), Epoch: 1, Data: bytes.Repeat([]byte("T"), 4096)})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put = %v, want ErrCrashed", err)
	}
	s2 := mustOpen(t, dir, 2)
	defer s2.Close()
	if _, ok, _ := s2.Node(0).Get(key("torn", 0, 0)); ok {
		t.Fatal("half-written shard visible after recovery")
	}
	sh, ok, err := s2.Node(0).Get(key("keep", 0, 0))
	if err != nil || !ok || !bytes.Equal(sh.Data, []byte("kept-data")) {
		t.Fatalf("earlier shard damaged: %+v ok=%v err=%v", sh, ok, err)
	}
	// A fresh write after recovery must land cleanly despite the garbage
	// tail left in the old segment (new appends go to a fresh segment).
	if err := s2.Node(0).Put(store.Shard{Key: key("after", 0, 0), Epoch: 2, Data: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	if sh, ok, _ := s2.Node(0).Get(key("after", 0, 0)); !ok || !bytes.Equal(sh.Data, []byte("fresh")) {
		t.Fatalf("post-recovery write broken: %+v ok=%v", sh, ok)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1, WithMaxSegmentBytes(256))
	payload := bytes.Repeat([]byte("R"), 100)
	for i := 0; i < 8; i++ {
		if err := s.Node(0).Put(store.Shard{Key: key("o", 0, i), Epoch: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "node-00", "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected rolled segments, found %d", len(segs))
	}
	s2 := mustOpen(t, dir, 1, WithMaxSegmentBytes(256))
	defer s2.Close()
	for i := 0; i < 8; i++ {
		sh, ok, err := s2.Node(0).Get(key("o", 0, i))
		if err != nil || !ok || !bytes.Equal(sh.Data, payload) {
			t.Fatalf("chunk %d lost across segments: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, mode := range []string{FsyncCommit, FsyncNever} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 2, WithFsync(mode))
			stageStripe2 := func(obj, tok string) {
				for i := 0; i < 2; i++ {
					if err := s.Node(i).Stage(tok, store.Shard{Key: key(obj, i, 0), Data: []byte(obj)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			stageStripe2("a", "t")
			if _, err := s.CommitStage("t", 1); err != nil {
				t.Fatal(err)
			}
			s.Close()
			s2 := mustOpen(t, dir, 2, WithFsync(mode))
			defer s2.Close()
			for i := 0; i < 2; i++ {
				if _, ok, err := s2.Node(i).Get(key("a", i, 0)); !ok || err != nil {
					t.Fatalf("mode %s: committed shard missing after clean close", mode)
				}
			}
		})
	}
	if _, err := Open(t.TempDir(), 1, WithFsync("sometimes")); err == nil {
		t.Fatal("bogus fsync mode accepted")
	}
}

func TestCorruptPersistsAtRest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	data := []byte("pristine-bytes")
	if err := s.Node(0).Put(store.Shard{Key: key("r", 0, 0), Epoch: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	if !s.Node(0).Corrupt(key("r", 0, 0), 3) {
		t.Fatal("Corrupt refused an existing shard")
	}
	want := append([]byte(nil), data...)
	want[0] ^= 1 << 3
	sh, _, _ := s.Node(0).Get(key("r", 0, 0))
	if !bytes.Equal(sh.Data, want) {
		t.Fatalf("rot not visible: got %q", sh.Data)
	}
	s.Close()
	// Rot is damage to the bytes AT REST: it must survive reopen.
	s2 := mustOpen(t, dir, 1)
	defer s2.Close()
	sh, _, _ = s2.Node(0).Get(key("r", 0, 0))
	if !bytes.Equal(sh.Data, want) {
		t.Fatalf("rot healed by reopen: got %q", sh.Data)
	}
}

func TestMetaMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, 3).Close()
	if _, err := Open(dir, 5); err == nil {
		t.Fatal("open with wrong node count accepted")
	}
}

// TestDifferentialMemVsDisk drives the identical mixed workload through
// the memory and disk backends and requires byte-for-byte agreement on
// every node's committed snapshot — memstore is the behavioural
// reference, diskstore must be indistinguishable above the interface.
func TestDifferentialMemVsDisk(t *testing.T) {
	const nodes = 4
	mem := store.Store(memstore.New(nodes))
	disk := store.Store(mustOpen(t, t.TempDir(), nodes))
	defer disk.Close()

	run := func(s store.Store) {
		// Direct puts, two objects.
		for i := 0; i < nodes; i++ {
			payload := bytes.Repeat([]byte{byte('A' + i)}, 64+i)
			if err := s.Node(i).Put(store.Shard{Key: key("direct", i, 0), Epoch: 1, Data: payload}); err != nil {
				t.Fatal(err)
			}
		}
		// A staged multi-chunk object, committed.
		for c := 0; c < 3; c++ {
			for i := 0; i < nodes; i++ {
				data := []byte(fmt.Sprintf("chunk%d-node%d", c, i))
				if err := s.Node(i).Stage("w1", store.Shard{Key: key("big", i, c), Data: data}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.CommitStage("w1", 2); err != nil {
			t.Fatal(err)
		}
		// An aborted stage.
		for i := 0; i < nodes; i++ {
			if err := s.Node(i).Stage("w2", store.Shard{Key: key("never", i, 0), Data: []byte("aborted")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.AbortStage("w2"); err != nil {
			t.Fatal(err)
		}
		// Rewrite one stripe at a later epoch (renewal shape).
		for i := 0; i < nodes; i++ {
			if err := s.Node(i).Stage("w3", store.Shard{Key: key("direct", i, 0), Data: []byte("renewed")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.CommitStage("w3", 3); err != nil {
			t.Fatal(err)
		}
		// Delete one object's shards on half the nodes.
		for i := 0; i < nodes/2; i++ {
			if err := s.Node(i).Delete(key("big", i, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(mem)
	run(disk)

	for i := 0; i < nodes; i++ {
		ms, err := mem.Node(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		ds, err := disk.Node(i).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sortShards(ms)
		sortShards(ds)
		if len(ms) != len(ds) {
			t.Fatalf("node %d: mem has %d shards, disk has %d", i, len(ms), len(ds))
		}
		for j := range ms {
			if ms[j].Key != ds[j].Key || ms[j].Epoch != ds[j].Epoch || !bytes.Equal(ms[j].Data, ds[j].Data) {
				t.Fatalf("node %d shard %d diverges:\n mem  %+v\n disk %+v", i, j, ms[j], ds[j])
			}
		}
		if mb, db := mem.Node(i).StoredBytes(), disk.Node(i).StoredBytes(); mb != db {
			t.Fatalf("node %d StoredBytes: mem %d, disk %d", i, mb, db)
		}
	}
}

func sortShards(s []store.Shard) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			a, b := s[j-1].Key, s[j].Key
			if a.Object < b.Object || (a.Object == b.Object && (a.Chunk < b.Chunk || (a.Chunk == b.Chunk && a.Index <= b.Index))) {
				break
			}
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// TestOversizeNamesRefusedBeforeAnyByte is the regression for the silent
// log cut: a 70 000-byte object id used to be written with its length
// truncated to 16 bits inside a frame larger than replay accepts, so the
// next Open truncated the WAL there and every later acknowledged commit
// was gone. Every entry point must refuse such an id (or stage token)
// with nothing appended, and the shard put afterwards must survive a
// reopen.
func TestOversizeNamesRefusedBeforeAnyByte(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 2)
	nd := s.Node(0)
	if err := nd.Put(store.Shard{Key: key("before", 0, 0), Data: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	walLen, stored := s.wal.size, nd.StoredBytes()
	huge := strings.Repeat("k", 70000)
	edge := strings.Repeat("k", maxNameLen+1)
	body := []byte("never stored")
	for name, call := range map[string]func() error{
		"Put":           func() error { return nd.Put(store.Shard{Key: key(huge, 0, 0), Data: body}) },
		"Put at limit":  func() error { return nd.Put(store.Shard{Key: key(edge, 0, 0), Data: body}) },
		"Stage key":     func() error { return nd.Stage("tok", store.Shard{Key: key(huge, 0, 0), Data: body}) },
		"Stage token":   func() error { return nd.Stage(huge, store.Shard{Key: key("obj", 0, 0), Data: body}) },
		"Stage at both": func() error { return nd.Stage(edge, store.Shard{Key: key(edge, 0, 0), Data: body}) },
	} {
		if err := call(); !errors.Is(err, store.ErrKeyTooLong) {
			t.Fatalf("%s: err = %v, want ErrKeyTooLong", name, err)
		}
		if s.wal.size != walLen || nd.StoredBytes() != stored || nd.StagedCount() != 0 {
			t.Fatalf("%s: refused call left bytes behind (wal %d→%d, stored %d→%d, staged %d)",
				name, walLen, s.wal.size, stored, nd.StoredBytes(), nd.StagedCount())
		}
	}
	// Nothing can be stored or staged under such a name, so the calls
	// that only act on what is there have nothing to write.
	if err := nd.Delete(key(huge, 0, 0)); err != nil || s.wal.size != walLen {
		t.Fatalf("Delete of an unstorable key: err=%v wal %d→%d", err, walLen, s.wal.size)
	}
	if n, err := s.CommitStage(huge, 1); n != 0 || err != nil || s.wal.size != walLen {
		t.Fatalf("CommitStage of an unstageable token: n=%d err=%v wal %d→%d", n, err, walLen, s.wal.size)
	}
	// The longest names accepted round-trip together through one record.
	longest := strings.Repeat("k", maxNameLen)
	if err := nd.Stage(longest, store.Shard{Key: key(longest, 0, 0), Data: []byte("long")}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.CommitStage(longest, 1); n != 1 || err != nil {
		t.Fatalf("CommitStage(longest): n=%d err=%v", n, err)
	}
	if err := nd.Put(store.Shard{Key: key("after", 0, 0), Data: []byte("also kept")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 2)
	defer s2.Close()
	if rep := s2.Recovery(); rep.WALBytesDropped != 0 || rep.InvalidRefs != 0 || rep.Shards != 3 {
		t.Fatalf("recovery after refused oversize names: %+v", rep)
	}
	for obj, want := range map[string]string{"before": "kept", longest: "long", "after": "also kept"} {
		sh, ok, err := s2.Node(0).Get(key(obj, 0, 0))
		if err != nil || !ok || string(sh.Data) != want {
			t.Fatalf("shard %.16q after reopen: ok=%v err=%v data=%q", obj, ok, err, sh.Data)
		}
	}
}

// TestIndexEntryLimits pins the narrowed in-memory index entry and the
// guards that keep its 32-bit segment offset and 16-bit node number
// sufficient.
func TestIndexEntryLimits(t *testing.T) {
	if ref, entry := unsafe.Sizeof(shardRef{}), unsafe.Sizeof(placed{}); ref != 24 || entry != 32 {
		t.Fatalf("shardRef is %d bytes and an index entry %d, want 24 and 32", ref, entry)
	}
	if _, err := Open(t.TempDir(), 1, WithMaxSegmentBytes(1<<32+1)); err == nil {
		t.Fatal("segment cap above 4 GiB accepted")
	}
	if _, err := Open(t.TempDir(), 1<<16); err == nil {
		t.Fatal("more nodes than an index entry can number accepted")
	}
	s := mustOpen(t, t.TempDir(), 1, WithMaxSegmentBytes(1<<32))
	s.Close()
}

// commitStripe14 stages 14 shards of 1.6 KiB one per node under a
// token of its own and commits them: the store's share of one small PUT
// in the benchmark's shape. between, if not nil, runs after the stages
// and before the commit, on the body every shard carries.
func commitStripe14(s *Store, i int64, between func(body []byte)) error {
	body := bytes.Repeat([]byte{0xA5}, 1639)
	obj, tok := fmt.Sprintf("bench/obj-%d", i), fmt.Sprintf("vault:bench/obj-%d#%d", i, i)
	for n := 0; n < 14; n++ {
		if err := s.Node(n).Stage(tok, store.Shard{Key: key(obj, n, 0), Data: body}); err != nil {
			return err
		}
	}
	if between != nil {
		between(body)
	}
	if n, err := s.CommitStage(tok, 0); n != 14 || err != nil {
		return fmt.Errorf("CommitStage: n=%d err=%v", n, err)
	}
	return nil
}

// BenchmarkCommitStage14 is one client's small PUTs: each commit point
// fsyncs up to 14 segments, in parallel, then the WAL.
func BenchmarkCommitStage14(b *testing.B) {
	s, err := Open(b.TempDir(), 14, WithFsync(FsyncCommit))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := commitStripe14(s, int64(i), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// hashStripe14 is a small PUT's own CPU work on its stripe: SHA-256 over
// its 14 shard bodies, 1.4 bytes hashed per user byte.
func hashStripe14(body []byte) {
	for range 14 {
		sha256.Sum256(body)
	}
}

// BenchmarkCommitStage14Parallel is the same PUTs from GOMAXPROCS
// clients at once, each under its own tokens and each hashing its stripe
// between its stages and its commit: commit points queue behind one
// another, while stages and hashing run beside them.
func BenchmarkCommitStage14Parallel(b *testing.B) {
	s, err := Open(b.TempDir(), 14, WithFsync(FsyncCommit))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := commitStripe14(s, seq.Add(1), hashStripe14); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestReplayCutsLogAtFirstBadFrame feeds the frame-by-frame replay every
// way a log can end badly. Each tail must be cut at exactly the first
// frame that is not whole and valid — also when a valid frame follows
// it — with the three commits before it intact and the log appendable
// again.
func TestReplayCutsLogAtFirstBadFrame(t *testing.T) {
	var good recBuf
	good.u8(walAbort)
	good.str16("never-staged")
	badCRC := good.frame()
	badCRC[4] ^= 0xFF
	absurd := binary.LittleEndian.AppendUint32(nil, walMaxPayload+1)
	for name, tail := range map[string][]byte{
		"torn header":   {1, 2, 3, 4, 5},
		"torn payload":  append(binary.LittleEndian.AppendUint32(nil, 100), make([]byte, 4+10)...),
		"absurd length": append(absurd, make([]byte, 2*walMaxPayload)...),
		"corrupt frame": append(badCRC, good.frame()...),
		"clean end":     nil, // nothing appended: a whole log stays whole
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 1)
			for i := 0; i < 3; i++ {
				if err := s.Node(0).Put(store.Shard{Key: key("o", i, 0), Epoch: i, Data: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			whole := s.wal.size
			s.Close()
			f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tail)
			f.Close()
			s2 := mustOpen(t, dir, 1)
			if rep := s2.Recovery(); rep.Shards != 3 || rep.WALBytesDropped != int64(len(tail)) || s2.wal.size != whole {
				t.Fatalf("recovery %+v, log %d bytes; want 3 shards, %d dropped, log %d bytes", rep, s2.wal.size, len(tail), whole)
			}
			if err := s2.Node(0).Put(store.Shard{Key: key("o", 3, 0), Data: []byte{3}}); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3 := mustOpen(t, dir, 1)
			defer s3.Close()
			if rep := s3.Recovery(); rep.Shards != 4 || rep.WALBytesDropped != 0 {
				t.Fatalf("second recovery %+v, want 4 shards and a whole log", rep)
			}
		})
	}
}

// TestReplayRefusesUnallocatedSegments: stage and put records whose
// frames are whole and valid but whose segment the node never allocated
// (0, or at or past the next number Open picks) are refused without
// opening anything. No segment file appears, no handle stays open, and
// the next Open picks the same next segment number, which the store's
// next append then uses.
func TestReplayRefusesUnallocatedSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 1)
	if err := s.Node(0).Put(store.Shard{Key: key("o", 0, 0), Data: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	var log []byte
	for i, seg := range []uint32{0, 2, 3, 9, 1 << 30} {
		var r recBuf
		r.u8(walStage)
		if i%2 == 1 {
			r.b[0] = walPut
		}
		writeRefTo(&r, 0, shardRef{seg: seg, dlen: 4}, i+1, 0)
		r.str16("o")
		if i%2 == 0 {
			r.str16("tok")
		}
		log = append(log, r.frame()...)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(log)
	f.Close()
	for reopen := 0; reopen < 2; reopen++ {
		s := mustOpen(t, dir, 1)
		nd := s.nodes[0]
		if rep := s.Recovery(); rep.InvalidRefs != 5 || rep.Shards != 1 {
			t.Fatalf("open %d: recovery %+v, want 5 invalid refs and 1 shard", reopen, rep)
		}
		entries, err := os.ReadDir(nd.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != segName(1) {
			t.Fatalf("open %d: node-00 holds %v, want only %s", reopen, entries, segName(1))
		}
		if _, ok := nd.segs[1]; len(nd.segs) != 1 || !ok || nd.next != 2 {
			t.Fatalf("open %d: %d handles open (segment 1: %v), next segment %d; want only segment 1 and next 2", reopen, len(nd.segs), ok, nd.next)
		}
		s.Close()
	}
	s = mustOpen(t, dir, 1)
	defer s.Close()
	if err := s.Node(0).Put(store.Shard{Key: key("o", 9, 0), Data: []byte("next")}); err != nil || s.nodes[0].cur != 2 {
		t.Fatalf("Put after replay: err %v, appended to segment %d, want 2", err, s.nodes[0].cur)
	}
}

// syncGuard bounds how long a test waits for an operation that a held
// fsync must not block. It is not a measurement: such an operation
// finishes within milliseconds, and one serialised behind the held
// fsync never does, so the guard only turns a deadlock into a failure.
const syncGuard = 10 * time.Second

// holdSyncs swaps the fsync seam so that every fsync of a file whose
// name ends in suffix (".seg" or "wal") blocks until release is called;
// held is closed when the first one arrives. Other fsyncs pass through.
// At cleanup it releases, closes s (which waits out a commit point in
// flight) and restores the seam.
func holdSyncs(t *testing.T, s *Store, suffix string) (held <-chan struct{}, release func()) {
	arrived, gate := make(chan struct{}), make(chan struct{})
	var arrive, open sync.Once
	release = func() { open.Do(func() { close(gate) }) }
	orig := syncFile
	syncFile = func(f *os.File) error {
		if strings.HasSuffix(f.Name(), suffix) {
			arrive.Do(func() { close(arrived) })
			<-gate
		}
		return orig(f)
	}
	t.Cleanup(func() {
		release()
		s.Close()
		syncFile = orig
	})
	return arrived, release
}

// await returns the next value from c, failing the test if none arrives
// within syncGuard.
func await[T any](t *testing.T, c <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(syncGuard):
		t.Fatalf("%s: still blocked after %v", what, syncGuard)
	}
	var zero T
	return zero
}

type commitResult struct {
	n   int
	err error
}

func commitAsync(s *Store, tok string, epoch int) <-chan commitResult {
	c := make(chan commitResult, 1)
	go func() {
		n, err := s.CommitStage(tok, epoch)
		c <- commitResult{n, err}
	}()
	return c
}

// checkStripe fails unless obj's shard on each node is committed with
// the data and epoch given (want[i]) or absent (!want[i]).
func checkStripe(t *testing.T, s *Store, when, obj string, data []byte, epoch int, want ...bool) {
	t.Helper()
	for i, w := range want {
		sh, ok, err := s.Node(i).Get(key(obj, i, 0))
		if err != nil || ok != w || (ok && (sh.Epoch != epoch || !bytes.Equal(sh.Data, data))) {
			t.Fatalf("%s: %s on node %d = %+v ok=%v err=%v, want present=%v at epoch %d", when, obj, i, sh, ok, err, w, epoch)
		}
	}
}

// TestHeldCommitFsyncBlocksNoOtherOp: while a commit point's segment
// fsync is held, a Get of a committed key, a Stage under another token
// and a byte count all finish. Any of them waiting on the commit's fsync
// fails it after syncGuard, on one core as on many.
func TestHeldCommitFsyncBlocksNoOtherOp(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 3)
	if err := s.Node(0).Put(store.Shard{Key: key("c", 0, 0), Epoch: 1, Data: []byte("committed")}); err != nil {
		t.Fatal(err)
	}
	stageStripe(t, s, "v", "t1", []byte("victim"))
	held, release := holdSyncs(t, s, ".seg")
	done := commitAsync(s, "t1", 2)
	await(t, held, "the commit's segment fsync")
	others := make(chan error, 1)
	go func() {
		sh, ok, err := s.Node(0).Get(key("c", 0, 0))
		if err == nil && (!ok || string(sh.Data) != "committed") {
			err = fmt.Errorf("Get = %+v ok=%v", sh, ok)
		}
		if err == nil {
			err = s.Node(1).Stage("t2", store.Shard{Key: key("w", 1, 0), Data: []byte("other")})
		}
		if got := s.Node(0).StoredBytes(); err == nil && got != int64(len("committed")+len("victim")) {
			err = fmt.Errorf("StoredBytes = %d", got)
		}
		others <- err
	}()
	if err := await(t, others, "Get, Stage and StoredBytes beside a held commit fsync"); err != nil {
		t.Fatal(err)
	}
	release()
	if r := await(t, done, "CommitStage"); r.n != 3 || r.err != nil {
		t.Fatalf("CommitStage = %d, %v", r.n, r.err)
	}
	checkStripe(t, s, "after release", "v", []byte("victim"), 2, true, true, true)
}

// TestCommitPointsStaySerial: a second CommitStage issued while the
// first one's segment fsync is held finishes only after the release,
// and each stripe commits with its own epoch, in memory and on replay.
func TestCommitPointsStaySerial(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "a", "t1", []byte("first"))
	stageStripe(t, s, "b", "t2", []byte("second"))
	held, release := holdSyncs(t, s, ".seg")
	first := commitAsync(s, "t1", 1)
	await(t, held, "the first commit's segment fsync")
	second := commitAsync(s, "t2", 2)
	select {
	case r := <-second:
		t.Fatalf("second CommitStage returned (%d, %v) while the first one's fsync was held", r.n, r.err)
	default:
	}
	release()
	for name, c := range map[string]<-chan commitResult{"first": first, "second": second} {
		if r := await(t, c, name+" CommitStage"); r.n != 3 || r.err != nil {
			t.Fatalf("%s CommitStage = %d, %v", name, r.n, r.err)
		}
	}
	checkStripe(t, s, "in memory", "a", []byte("first"), 1, true, true, true)
	checkStripe(t, s, "in memory", "b", []byte("second"), 2, true, true, true)
	s.Close()
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	checkStripe(t, s2, "after replay", "a", []byte("first"), 1, true, true, true)
	checkStripe(t, s2, "after replay", "b", []byte("second"), 2, true, true, true)
}

// TestCloseDuringHeldCommitFsync: Close issued while a commit's segment
// fsync is held waits for that commit point, returns cleanly, and the
// directory reopens with the stripe committed and no orphans.
func TestCloseDuringHeldCommitFsync(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "v", "t1", []byte("kept"))
	held, release := holdSyncs(t, s, ".seg")
	done := commitAsync(s, "t1", 4)
	await(t, held, "the commit's segment fsync")
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	release()
	if r := await(t, done, "CommitStage"); r.n != 3 || r.err != nil {
		t.Fatalf("CommitStage = %d, %v", r.n, r.err)
	}
	if err := await(t, closed, "Close"); err != nil {
		t.Fatalf("Close = %v", err)
	}
	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 0 || rep.InvalidRefs != 0 || rep.Shards != 3 {
		t.Fatalf("recovery = %+v, want 3 shards and no orphans", rep)
	}
	checkStripe(t, s2, "after reopen", "v", []byte("kept"), 4, true, true, true)
}

// TestStageRefusedWhileItsTokenCommits: a shard staged under a token
// after its CommitStage collected what to fsync would be named by the
// commit record without having been fsynced, so Stage refuses it.
func TestStageRefusedWhileItsTokenCommits(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 3)
	stageStripe(t, s, "v", "t1", []byte("victim"))
	held, release := holdSyncs(t, s, ".seg")
	done := commitAsync(s, "t1", 1)
	await(t, held, "the commit's segment fsync")
	if err := s.Node(0).Stage("t1", store.Shard{Key: key("late", 0, 0), Data: []byte("late")}); !errors.Is(err, errStageCommitting) {
		t.Fatalf("Stage under the committing token = %v, want errStageCommitting", err)
	}
	release()
	if r := await(t, done, "CommitStage"); r.n != 3 || r.err != nil {
		t.Fatalf("CommitStage = %d, %v", r.n, r.err)
	}
	if _, ok, _ := s.Node(0).Get(key("late", 0, 0)); ok || s.Node(0).StagedCount() != 0 {
		t.Fatalf("refused shard left behind: visible=%v staged=%d", ok, s.Node(0).StagedCount())
	}
	// The token is free again once its commit point is over.
	if err := s.Node(0).Stage("t1", store.Shard{Key: key("late", 0, 0), Data: []byte("late")}); err != nil {
		t.Fatal(err)
	}
}

// TestRacingStageOpsAgreeWithReplay: an AbortStage of the committing
// token, or a Stage of one of its keys under another token, lands while
// the commit point's segment fsync or its WAL fsync is held. Before the
// commit record it removes shards from the commit; after it, it does
// not. Either way memory must hold exactly what replay rebuilds.
func TestRacingStageOpsAgreeWithReplay(t *testing.T) {
	for _, tc := range []struct {
		op, hold  string
		n         int    // shards CommitStage reports committed
		committed []bool // per node, after the commit
		parked    int    // shards left staged (under t2), orphans at replay
	}{
		{"abort", ".seg", 0, []bool{false, false, false}, 0},
		{"abort", "wal", 3, []bool{true, true, true}, 0},
		{"restage", ".seg", 2, []bool{false, true, true}, 1},
		{"restage", "wal", 3, []bool{true, true, true}, 1},
	} {
		t.Run(tc.op+" during "+tc.hold+" fsync", func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 3)
			stageStripe(t, s, "v", "t1", []byte("victim"))
			held, release := holdSyncs(t, s, tc.hold)
			done := commitAsync(s, "t1", 3)
			await(t, held, "the commit's fsync")
			switch tc.op {
			case "abort":
				if n, err := s.AbortStage("t1"); n != 3 || err != nil {
					t.Fatalf("AbortStage = %d, %v", n, err)
				}
			case "restage":
				if err := s.Node(0).Stage("t2", store.Shard{Key: key("v", 0, 0), Data: []byte("newer")}); err != nil {
					t.Fatal(err)
				}
			}
			release()
			if r := await(t, done, "CommitStage"); r.n != tc.n || r.err != nil {
				t.Fatalf("CommitStage = %d, %v; want %d", r.n, r.err, tc.n)
			}
			checkStripe(t, s, "in memory", "v", []byte("victim"), 3, tc.committed...)
			if got := s.Node(0).StagedCount(); got != tc.parked {
				t.Fatalf("node 0 StagedCount = %d, want %d", got, tc.parked)
			}
			s.Close()
			s2 := mustOpen(t, dir, 3)
			defer s2.Close()
			checkStripe(t, s2, "after replay", "v", []byte("victim"), 3, tc.committed...)
			if rep := s2.Recovery(); rep.OrphanedStages != tc.parked || rep.InvalidRefs != 0 {
				t.Fatalf("recovery = %+v, want %d orphans", rep, tc.parked)
			}
		})
	}
}

// TestFailedFsyncPoisonsTheStore: a segment or WAL fsync that fails
// fails its commit and every later operation, even once fsync works
// again — nothing retries an fsync whose pages the kernel may have
// dropped.
func TestFailedFsyncPoisonsTheStore(t *testing.T) {
	injected := errors.New("injected EIO")
	orig := syncFile
	t.Cleanup(func() { syncFile = orig })
	for _, suffix := range []string{".seg", "wal"} {
		t.Run(suffix, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), 3)
			if err := s.Node(0).Put(store.Shard{Key: key("c", 0, 0), Data: []byte("before")}); err != nil {
				t.Fatal(err)
			}
			stageStripe(t, s, "v", "t1", []byte("victim"))
			syncFile = func(f *os.File) error {
				if strings.HasSuffix(f.Name(), suffix) {
					return injected
				}
				return orig(f)
			}
			if _, err := s.CommitStage("t1", 1); !errors.Is(err, injected) {
				t.Fatalf("CommitStage = %v, want the injected fsync failure", err)
			}
			syncFile = orig
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"Get", func() error { _, _, err := s.Node(0).Get(key("c", 0, 0)); return err }},
				{"Put", func() error { return s.Node(1).Put(store.Shard{Key: key("p", 1, 0), Data: []byte("x")}) }},
				{"Stage", func() error { return s.Node(1).Stage("t2", store.Shard{Key: key("q", 1, 0), Data: []byte("x")}) }},
				{"CommitStage", func() error { _, err := s.CommitStage("t1", 2); return err }},
				{"Delete", func() error { return s.Node(0).Delete(key("c", 0, 0)) }},
				{"Close", s.Close},
			} {
				if err := c.call(); !errors.Is(err, injected) {
					t.Fatalf("%s after a failed fsync = %v, want the injected failure", c.name, err)
				}
			}
		})
	}
}

// TestWritebackPrecedesEveryFsync records the writeback hints and the
// fsyncs of one 14-shard CommitStage. Every file that is fsynced is
// hinted exactly once, before its fsync, from the synced watermark its
// target captured: the 14 segments before the commit queues for
// commitMu, all of them before the first segment fsync, and the WAL
// under commitMu once the segment fsyncs are done. No hint raises a
// watermark, so the fsyncs alone do.
func TestWritebackPrecedesEveryFsync(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 14)
	defer s.Close()
	if err := commitStripe14(s, 0, nil); err != nil {
		t.Fatal(err)
	}
	tok := "vault:bench/obj-1#1"
	for n := 0; n < 14; n++ {
		if err := s.Node(n).Stage(tok, store.Shard{Key: key("bench/obj-1", n, 0), Data: []byte("second stripe")}); err != nil {
			t.Fatal(err)
		}
	}
	files := map[*os.File]*appendFile{s.wal.f: s.wal}
	var segs []*appendFile
	for _, nd := range s.nodes {
		af := nd.segs[nd.cur]
		files[af.f], segs = af, append(segs, af)
	}
	watermarks := func() map[*appendFile]int64 {
		m := map[*appendFile]int64{}
		for _, af := range files {
			m[af] = af.synced
		}
		return m
	}
	captured := watermarks()

	type event struct {
		fsync, queued bool // queued: commitMu held when a hint is issued
		af            *appendFile
	}
	var (
		mu        sync.Mutex
		events    []event
		atHint    map[*appendFile]int64 // every watermark at the last hint
		problems  []string
		origSync  = syncFile
		origWrite = startWriteback
	)
	t.Cleanup(func() { syncFile, startWriteback = origSync, origWrite })
	startWriteback = func(af *appendFile, from int64) {
		mu.Lock()
		if from != captured[af] {
			problems = append(problems, fmt.Sprintf("%s hinted from %d, its target captured %d", af.f.Name(), from, captured[af]))
		}
		queued := !s.commitMu.TryLock()
		if !queued {
			s.commitMu.Unlock()
		}
		events = append(events, event{false, queued, af})
		atHint = watermarks()
		mu.Unlock()
		origWrite(af, from)
	}
	syncFile = func(f *os.File) error {
		mu.Lock()
		events = append(events, event{true, true, files[f]})
		for af, w := range watermarks() {
			if atHint != nil && w != atHint[af] {
				problems = append(problems, fmt.Sprintf("%s watermark %d before its fsync, %d at the hint", af.f.Name(), w, atHint[af]))
			}
		}
		mu.Unlock()
		return origSync(f)
	}
	if n, err := s.CommitStage(tok, 1); n != 14 || err != nil {
		t.Fatalf("CommitStage = %d, %v", n, err)
	}
	syncFile, startWriteback = origSync, origWrite

	for _, p := range problems {
		t.Error(p)
	}
	// The calls in order: the 14 segments' hints before the commit
	// queues, their fsyncs under commitMu, then the WAL's hint and fsync.
	// Within a phase the order is free.
	phases := []struct {
		fsync, queued bool
		files         []*appendFile
	}{{false, false, segs}, {true, true, segs}, {false, true, []*appendFile{s.wal}}, {true, true, []*appendFile{s.wal}}}
	describe := func() string {
		var b strings.Builder
		for _, e := range events {
			kind := "hint"
			switch {
			case e.fsync:
				kind = "fsync"
			case e.queued:
				kind = "hint(queued)"
			}
			name := e.af.f.Name()
			fmt.Fprintf(&b, " %s:%s/%s", kind, filepath.Base(filepath.Dir(name)), filepath.Base(name))
		}
		return b.String()
	}
	rest := events
	for i, ph := range phases {
		want, got := map[*appendFile]int{}, map[*appendFile]int{}
		for _, af := range ph.files {
			want[af]++
		}
		for n := 0; n < len(ph.files) && len(rest) > 0 && rest[0].fsync == ph.fsync && rest[0].queued == ph.queued; n++ {
			got[rest[0].af]++
			rest = rest[1:]
		}
		if !maps.Equal(got, want) {
			t.Fatalf("phase %d (fsync %v, commitMu held %v) is not one call on each of its %d files; calls:%s", i, ph.fsync, ph.queued, len(ph.files), describe())
		}
	}
	if len(rest) > 0 {
		t.Fatalf("%d calls after the WAL fsync; calls:%s", len(rest), describe())
	}
	for _, af := range files {
		if af.synced != af.size {
			t.Errorf("%s synced to %d of %d bytes after the commit", af.f.Name(), af.synced, af.size)
		}
	}
}

type hintCall struct {
	af   *appendFile
	from int64
}

// TestQueuedCommitHintsWhileTheFirstFsyncs: commit A is parked in its
// segment fsync, holding commitMu, when token B is staged and committed.
// B's 14 segments are hinted, each from the watermark its target
// captured, while A is still parked, and no fsync for B starts before A's
// WAL fsync has returned. Released, both commit, and a reopen replays
// both.
func TestQueuedCommitHintsWhileTheFirstFsyncs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 14)
	stageStripe(t, s, "a", "ta", []byte("first"))
	held, release := holdSyncs(t, s, ".seg")
	var (
		mu    sync.Mutex
		calls []string // "start seg", "end wal", ... in the order they happen
	)
	holding := syncFile
	syncFile = func(f *os.File) error {
		kind := "seg"
		if strings.HasSuffix(f.Name(), "wal") {
			kind = "wal"
		}
		mu.Lock()
		calls = append(calls, "start "+kind)
		mu.Unlock()
		err := holding(f)
		mu.Lock()
		calls = append(calls, "end "+kind)
		mu.Unlock()
		return err
	}
	t.Cleanup(func() { syncFile = holding })
	first := commitAsync(s, "ta", 1)
	await(t, held, "A's segment fsync")

	s.mu.Lock()
	captured := map[*appendFile]int64{}
	for _, nd := range s.nodes {
		af := nd.segs[nd.cur]
		captured[af] = af.synced
	}
	s.mu.Unlock()
	hints := make(chan hintCall, 64)
	origWrite := startWriteback
	startWriteback = func(af *appendFile, from int64) {
		hints <- hintCall{af, from}
		origWrite(af, from)
	}
	t.Cleanup(func() { startWriteback = origWrite })
	second := make(chan commitResult, 1)
	go func() {
		for i := 0; i < 14; i++ {
			if err := s.Node(i).Stage("tb", store.Shard{Key: key("b", i, 0), Data: []byte("second")}); err != nil {
				second <- commitResult{0, err}
				return
			}
		}
		n, err := s.CommitStage("tb", 2)
		second <- commitResult{n, err}
	}()
	for i := 0; i < 14; i++ {
		h := await(t, hints, "B's segment hints")
		w, ok := captured[h.af]
		if !ok || h.from != w {
			t.Fatalf("hint %d on %s from %d; want a current segment, from its watermark %d", i, h.af.f.Name(), h.from, w)
		}
		delete(captured, h.af)
	}
	select {
	case r := <-first:
		t.Fatalf("A returned (%d, %v) before its fsync was released", r.n, r.err)
	case r := <-second:
		t.Fatalf("B returned (%d, %v) while A held commitMu", r.n, r.err)
	default:
	}

	release()
	for name, c := range map[string]<-chan commitResult{"A": first, "B": second} {
		if r := await(t, c, name+"'s CommitStage"); r.n != 14 || r.err != nil {
			t.Fatalf("%s's CommitStage = %d, %v", name, r.n, r.err)
		}
	}
	mu.Lock()
	var before []string // every fsync started before A's WAL fsync returned
	for _, c := range calls {
		if c == "end wal" {
			break
		}
		if strings.HasPrefix(c, "start") {
			before = append(before, c)
		}
	}
	mu.Unlock()
	if len(before) != 15 || before[14] != "start wal" {
		t.Fatalf("fsyncs started before A's WAL fsync returned: %v; want A's 14 segments and its WAL", before)
	}
	all := make([]bool, 14)
	for i := range all {
		all[i] = true
	}
	s.Close()
	s2 := mustOpen(t, dir, 14)
	defer s2.Close()
	checkStripe(t, s2, "after replay", "a", []byte("first"), 1, all...)
	checkStripe(t, s2, "after replay", "b", []byte("second"), 2, all...)
}

// TestCloseRacesAHintedCommit: commit A is parked in its segment fsync
// when B's CommitStage starts hinting, and B is held inside its first
// hint while a Close, queued behind A, runs once A is released. B's
// hints then land on closed files, where they do nothing, and B gets
// ErrClosed. A reopen finds A committed and B's stages orphaned.
func TestCloseRacesAHintedCommit(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 3)
	stageStripe(t, s, "a", "ta", []byte("first"))
	held, release := holdSyncs(t, s, ".seg")
	first := commitAsync(s, "ta", 1)
	await(t, held, "A's segment fsync")
	stageStripe(t, s, "b", "tb", []byte("second"))

	hinting, resume := make(chan struct{}), make(chan struct{})
	var nth atomic.Int32
	origWrite := startWriteback
	startWriteback = func(af *appendFile, from int64) {
		if nth.Add(1) == 1 {
			close(hinting)
			<-resume
		}
		origWrite(af, from)
	}
	t.Cleanup(func() { startWriteback = origWrite })
	second := commitAsync(s, "tb", 2)
	await(t, hinting, "B's first hint")
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	release()
	if r := await(t, first, "A's CommitStage"); r.n != 3 || r.err != nil {
		t.Fatalf("A's CommitStage = %d, %v", r.n, r.err)
	}
	if err := await(t, closed, "Close"); err != nil {
		t.Fatalf("Close = %v", err)
	}
	close(resume)
	if r := await(t, second, "B's CommitStage"); r.n != 0 || !errors.Is(r.err, ErrClosed) {
		t.Fatalf("B's CommitStage after Close = %d, %v; want ErrClosed", r.n, r.err)
	}
	origWrite(s.wal, 0) // a hint on a closed handle does nothing

	s2 := mustOpen(t, dir, 3)
	defer s2.Close()
	if rep := s2.Recovery(); rep.OrphanedStages != 3 || rep.InvalidRefs != 0 {
		t.Fatalf("recovery = %+v, want B's 3 orphaned stages", rep)
	}
	checkStripe(t, s2, "after reopen", "a", []byte("first"), 1, true, true, true)
	checkStripe(t, s2, "after reopen", "b", nil, 0, false, false, false)
}

// TestCrashWithBystanderInFlight is the crash matrix's two commit-point
// cells with a second token staged while the victim's segment fsync is
// held. After reopen the victim is wholly absent (crash before the WAL
// sync) or wholly present (after it), earlier commits are intact, and
// the bystander is gone: its stage records reached the log, but its
// bodies were appended after the sizes the fsync vouched for, so the
// simulated power cut drops them and replay discards the records as
// invalid references.
func TestCrashWithBystanderInFlight(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cp        CrashPoint
		committed bool
		orphans   int
	}{
		{"CrashBeforeWALSync", CrashBeforeWALSync, false, 3},
		{"CrashAfterWALSync", CrashAfterWALSync, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 3)
			stageStripe(t, s, "base", "t0", []byte("baseline"))
			if _, err := s.CommitStage("t0", 1); err != nil {
				t.Fatal(err)
			}
			stageStripe(t, s, "victim", "t1", []byte("victim"))
			s.SetCrashPoint(tc.cp)
			held, release := holdSyncs(t, s, ".seg")
			done := commitAsync(s, "t1", 2)
			await(t, held, "the victim's segment fsync")
			stageStripe(t, s, "bystander", "t2", []byte("bystander"))
			release()
			if r := await(t, done, "CommitStage"); !errors.Is(r.err, ErrCrashed) {
				t.Fatalf("CommitStage = %d, %v; want ErrCrashed", r.n, r.err)
			}
			s2 := mustOpen(t, dir, 3)
			defer s2.Close()
			if rep := s2.Recovery(); rep.OrphanedStages != tc.orphans || rep.InvalidRefs != 3 {
				t.Fatalf("recovery = %+v, want %d orphans and the bystander's 3 invalid refs", rep, tc.orphans)
			}
			all := []bool{tc.committed, tc.committed, tc.committed}
			checkStripe(t, s2, "after reopen", "victim", []byte("victim"), 2, all...)
			checkStripe(t, s2, "after reopen", "bystander", nil, 0, false, false, false)
			checkStripe(t, s2, "after reopen", "base", []byte("baseline"), 1, true, true, true)
		})
	}
}

// holdReads swaps the read seam so that every shard-body read blocks
// until release is called; held is closed when the first one arrives.
// At cleanup it releases, closes s and restores the seam.
func holdReads(t *testing.T, s *Store) (held <-chan struct{}, release func()) {
	arrived, gate := make(chan struct{}), make(chan struct{})
	var arrive, open sync.Once
	release = func() { open.Do(func() { close(gate) }) }
	orig := readFile
	readFile = func(f *os.File, b []byte, off int64) (int, error) {
		arrive.Do(func() { close(arrived) })
		<-gate
		return orig(f, b, off)
	}
	t.Cleanup(func() {
		release()
		s.Close()
		readFile = orig
	})
	return arrived, release
}

// TestGetRacesCloseCorruptAndRollover: Get reads a body with s.mu
// released. With a Get held inside its read, a Corrupt of its shard,
// Puts that roll its node over to a new segment, and then (in two of the
// cases) a Close or a crash all finish without waiting for it. Released,
// the Get returns the bytes on disk, the flipped bit included, while the
// store lives, and the store's death once it has closed or crashed: the
// read then meets a closed file (and under FsyncNever the crash has cut
// the segment to nothing), never a panic.
func TestGetRacesCloseCorruptAndRollover(t *testing.T) {
	for _, end := range []string{"live", "close", "crash"} {
		t.Run(end, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), 1, WithFsync(FsyncNever), WithMaxSegmentBytes(4<<10))
			body := bytes.Repeat([]byte{7}, 512)
			k := key("obj", 0, 0)
			if err := s.Node(0).Put(store.Shard{Key: k, Data: body}); err != nil {
				t.Fatal(err)
			}
			held, release := holdReads(t, s)
			type result struct {
				sh  store.Shard
				ok  bool
				err error
			}
			done := make(chan result, 1)
			go func() {
				sh, ok, err := s.Node(0).Get(k)
				done <- result{sh, ok, err}
			}()
			await(t, held, "the Get's read")
			others := make(chan error, 1)
			go func() {
				if !s.Node(0).Corrupt(k, 0) {
					others <- errors.New("Corrupt failed")
					return
				}
				for i := range 10 { // ten 512-byte bodies overflow a 4 KiB segment
					if err := s.Node(0).Put(store.Shard{Key: key("roll", i, 0), Data: body}); err != nil {
						others <- err
						return
					}
				}
				s.mu.Lock()
				ref, _ := s.index.get(0, k)
				rolled := s.nodes[0].cur != ref.seg
				s.mu.Unlock()
				var err error
				switch {
				case !rolled:
					err = errors.New("node 0 did not roll over to a new segment")
				case end == "close":
					err = s.Close()
				case end == "crash":
					s.SetCrashPoint(CrashMidSegmentAppend)
					if perr := s.Node(0).Put(store.Shard{Key: key("last", 0, 0), Data: body}); !errors.Is(perr, ErrCrashed) {
						err = fmt.Errorf("crashing Put = %v, want ErrCrashed", perr)
					}
				}
				others <- err
			}()
			if err := await(t, others, "Corrupt, rolling Puts and the "+end+" beside a held read"); err != nil {
				t.Fatal(err)
			}
			release()
			r := await(t, done, "the held Get")
			flipped := append([]byte{body[0] ^ 1}, body[1:]...)
			switch {
			case end == "live" && (r.err != nil || !r.ok || !bytes.Equal(r.sh.Data, flipped)):
				t.Fatalf("held Get = %d bytes ok=%v err=%v, want the bytes on disk, bit 0 flipped", len(r.sh.Data), r.ok, r.err)
			case end == "close" && !errors.Is(r.err, ErrClosed):
				t.Fatalf("held Get across Close = %v, want ErrClosed", r.err)
			case end == "crash" && !errors.Is(r.err, ErrCrashed):
				t.Fatalf("held Get across a crash = %v, want ErrCrashed", r.err)
			}
		})
	}
}
