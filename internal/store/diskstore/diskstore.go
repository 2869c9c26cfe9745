// Package diskstore is the durable store.Store: shard bodies live in
// per-node append-only segment files (archival data is write-once —
// sequential segments beat a KV store for bulk bodies), and a single
// shared write-ahead log carries the stage/commit/abort/delete protocol.
// A multi-shard CommitStage is one WAL record whose fsync is the commit
// point: after a kill -9 at any instant, Open replays the log and the
// archive holds either the whole committed stripe or none of it — never
// a mix, and never an orphaned stage.
//
// Layout under the root directory:
//
//	meta.json            — {"version":1,"nodes":N}, written at creation
//	wal                  — the shared log (see wal.go for framing)
//	node-00/00000001.seg — node 0's segment files, numbered, append-only
//	...
//
// Fsync policy (store.Config.Fsync): "commit" (default) fsyncs the
// segments a commit-point record (commit, put, delete) references, in
// parallel, before the record is appended, and then the WAL — one
// ordered pair of fsync steps per durable decision. Each file a step
// fsyncs has its writeback started once beforehand, from its synced
// watermark (sync_file_range on linux/amd64 and arm64, nothing
// elsewhere), so the fsyncs wait on writes already in flight. A
// CommitStage starts its segments' writeback before it queues for
// commitMu, so they are on their way to disk while an earlier commit
// point's fsyncs run; Put and the WAL step start theirs just before
// their fsyncs. The hint makes nothing durable and raises no watermark.
// "never" skips fsync entirely (still recovers from process kill, not
// from power loss). Stage and abort records are never individually
// fsynced: a lost stage is exactly an aborted one. A file needs an fsync
// while its synced watermark is below its size, so one fsync covers
// every stage appended before it, whoever staged them. A failed fsync
// kills the store: the kernel may already have dropped the pages it
// could not write, so no later fsync could vouch for them.
//
// Locking: commitMu serialises the commit points (CommitStage, Put,
// Delete) and Close; mu guards the maps, sizes, watermarks and appends,
// and is never held across an fsync, nor across a Get's shard read
// either: Get looks up the ref and the segment handle under mu and reads
// with it released, so concurrent Gets overlap (Snapshot, the
// adversary's exfiltration, still reads under it). A segment's handle is
// never replaced once open, so a read racing Close, a crash's truncation
// or Corrupt gets an error or the bytes on disk. Lock order is commitMu,
// then mu.
package diskstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"securearchive/internal/store"
)

// Fsync policies.
const (
	FsyncCommit = "commit"
	FsyncNever  = "never"
)

// DefaultMaxSegmentBytes rolls segments at 64 MiB — large enough that
// multi-MiB shards stay sequential, small enough that a torn tail never
// strands much space.
const DefaultMaxSegmentBytes = 64 << 20

// Limits the narrow in-memory shardRef and the WAL framing impose.
const (
	// maxSegmentBytes is the largest segment cap Open accepts: index
	// entries hold segment offsets in 32 bits.
	maxSegmentBytes = 1 << 32
	// maxNameLen bounds an object id and a stage token so that a stage
	// record carrying one of each still fits a WAL frame replay accepts
	// (walMaxPayload) and each length fits its u16 prefix.
	maxNameLen = (walMaxPayload - 64) / 2
)

// Errors.
var (
	// ErrCrashed is returned by every operation after an injected crash
	// point fired (and by operations on a closed store).
	ErrCrashed = errors.New("diskstore: store crashed")
	// ErrClosed is returned by operations on a Close()d store.
	ErrClosed = errors.New("diskstore: store closed")

	errStageCommitting = errors.New("diskstore: stage token is committing")
)

// Option configures Open.
type Option func(*Store)

// WithFsync selects the durability policy: FsyncCommit (default) or
// FsyncNever.
func WithFsync(mode string) Option {
	return func(s *Store) {
		if mode != "" {
			s.fsync = mode
		}
	}
}

// WithMaxSegmentBytes caps segment files before the writer rolls over.
// Open refuses a cap above 4 GiB.
func WithMaxSegmentBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.maxSeg = n
		}
	}
}

// Store implements store.Store over segments + WAL. A commit point runs
// under commitMu and takes mu only around its bookkeeping: collect the
// shards and the sizes to make durable, fsync the segments (mu
// released), append the record, fsync the WAL (mu released), flip the
// index. So a Get, a Stage or a byte count waits for a commit point's
// map work, never for its fsyncs. Commit points stay serial: each one's
// record must follow the fsyncs of the bodies it references.
type Store struct {
	dir    string
	fsync  string
	maxSeg int64

	commitMu sync.Mutex
	mu       sync.Mutex
	wal      *appendFile
	nodes    []*diskNode
	index    shardIndex // every node's committed shards; see index.go
	// committing is the token of the CommitStage in flight, if any
	// (valid while inCommit). Stage refuses it: a shard staged after the
	// commit collected its fsync targets would be covered by the commit
	// record without having been fsynced.
	committing string
	inCommit   bool
	// dead, once set, fails every subsequent operation: ErrCrashed after
	// an injected crash point, ErrClosed after Close, the wrapped error
	// after a failed fsync.
	dead error
	// crash is the armed injection point; see crash.go.
	crash CrashPoint
	// recovery describes what the opening replay found.
	recovery RecoveryReport
}

// diskNode is one node's view of the store: its segment files, its
// staging area, and (through s.index) its committed shards.
type diskNode struct {
	s      *Store
	id     int
	dir    string
	staged map[store.ShardKey]stagedRef
	segs   map[uint32]*appendFile // open handles, keyed by segment number
	cur    uint32                 // current append segment; 0 = none yet
	next   uint32                 // next segment number to allocate
}

type stagedRef struct {
	stage string
	ref   shardRef
}

type metaFile struct {
	Version int `json:"version"`
	Nodes   int `json:"nodes"`
}

// Open opens (creating if needed) a disk store for n nodes rooted at
// dir, replaying the WAL: committed state is rebuilt, orphaned stages —
// staged shards whose token never reached a commit record — are
// discarded, and a torn log or segment tail is truncated away. The
// replay's findings are available from Recovery().
func Open(dir string, n int, opts ...Option) (*Store, error) {
	if n <= 0 || n > math.MaxUint16 {
		return nil, fmt.Errorf("diskstore: need 1 to %d nodes, got %d", math.MaxUint16, n)
	}
	s := &Store{dir: dir, fsync: FsyncCommit, maxSeg: DefaultMaxSegmentBytes, index: shardIndex{}}
	for _, o := range opts {
		o(s)
	}
	switch s.fsync {
	case FsyncCommit, FsyncNever:
	default:
		return nil, fmt.Errorf("diskstore: unknown fsync policy %q", s.fsync)
	}
	if s.maxSeg > maxSegmentBytes {
		return nil, fmt.Errorf("diskstore: segment cap %d above the %d-byte limit", s.maxSeg, int64(maxSegmentBytes))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.checkMeta(n); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		nd := &diskNode{
			s:      s,
			id:     i,
			dir:    filepath.Join(dir, fmt.Sprintf("node-%02d", i)),
			staged: make(map[store.ShardKey]stagedRef),
			segs:   make(map[uint32]*appendFile),
			next:   1,
		}
		if err := os.MkdirAll(nd.dir, 0o755); err != nil {
			s.closeFiles()
			return nil, err
		}
		if err := nd.scanSegments(); err != nil {
			s.closeFiles()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
	}
	wal, err := openAppend(filepath.Join(dir, "wal"))
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	s.wal = wal
	if err := s.replay(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// checkMeta creates or validates meta.json, refusing to open a directory
// laid out for a different node count.
func (s *Store) checkMeta(n int) error {
	path := filepath.Join(s.dir, "meta.json")
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		blob, _ = json.Marshal(metaFile{Version: 1, Nodes: n})
		return os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var m metaFile
	if err := json.Unmarshal(blob, &m); err != nil {
		return fmt.Errorf("diskstore: corrupt meta.json: %w", err)
	}
	if m.Nodes != n {
		return fmt.Errorf("diskstore: directory holds %d nodes, asked for %d", m.Nodes, n)
	}
	return nil
}

// scanSegments finds the node's existing segment files and positions
// next past them. The previous append segment is never reused: a fresh
// Open starts a fresh segment, so a torn tail from a crash is simply
// never appended after (its garbage bytes are unreferenced).
func (nd *diskNode) scanSegments() error {
	entries, err := os.ReadDir(nd.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		var num uint32
		if _, err := fmt.Sscanf(name, "%08d.seg", &num); err != nil {
			continue
		}
		if num >= nd.next {
			nd.next = num + 1
		}
	}
	return nil
}

func segName(num uint32) string { return fmt.Sprintf("%08d.seg", num) }

// seg returns the open handle for a segment, opening it on demand (a
// reopened store touches old segments lazily).
func (nd *diskNode) seg(num uint32) (*appendFile, error) {
	if af, ok := nd.segs[num]; ok {
		return af, nil
	}
	af, err := openAppend(filepath.Join(nd.dir, segName(num)))
	if err != nil {
		return nil, err
	}
	nd.segs[num] = af
	return af, nil
}

// appendShard writes one shard body into the node's current segment
// (rolling to a new one at the size cap) and returns its reference,
// stamped with the epoch it will carry once committed. Caller holds s.mu
// and has passed the key through checkNames.
func (nd *diskNode) appendShard(key store.ShardKey, data []byte, epoch int) (shardRef, error) {
	if int64(len(data)) > math.MaxUint32 {
		return shardRef{}, fmt.Errorf("diskstore: %d-byte shard body exceeds the record format", len(data))
	}
	rec := segRecord(key.Object, key.Index, key.Chunk, data)
	if nd.cur == 0 || func() bool {
		af := nd.segs[nd.cur]
		return af != nil && af.size > 0 && af.size+int64(len(rec)) > nd.s.maxSeg
	}() {
		nd.cur = nd.next
		nd.next++
	}
	af, err := nd.seg(nd.cur)
	if err != nil {
		return shardRef{}, err
	}
	if nd.s.crash == CrashMidSegmentAppend {
		return shardRef{}, nd.s.dieMidAppend(af, rec)
	}
	off, err := af.append(rec)
	if err != nil {
		return shardRef{}, err
	}
	return shardRef{
		seg: nd.cur, off: uint32(off), dlen: uint32(len(data)),
		klen: uint16(len(key.Object)), epoch: int64(epoch),
	}, nil
}

// syncUnlocked fsyncs the targets in parallel with s.mu released, then
// raises each file's watermark to the size the target captured. Unless
// the caller hinted them already, it first starts their writeback
// (startWritebacks). Caller holds s.mu; it is held again on return, and
// the store may have died meanwhile. A failed fsync poisons the store.
// Under FsyncNever it does nothing.
func (s *Store) syncUnlocked(ts []syncTarget, hinted bool) error {
	if s.fsync == FsyncNever || len(ts) == 0 {
		return nil
	}
	s.mu.Unlock()
	if !hinted {
		startWritebacks(ts)
	}
	err := syncParallel(ts)
	s.mu.Lock()
	if err != nil {
		return s.poison(err)
	}
	if s.dead != nil {
		return s.dead
	}
	for _, t := range ts {
		t.af.synced = max(t.af.synced, t.size)
	}
	return nil
}

// poison records a failed fsync. After one the kernel may have marked
// the unwritten pages clean, so a retry could "succeed" over lost data:
// the store fails the operation and every later one instead. Caller
// holds s.mu.
func (s *Store) poison(err error) error {
	if s.dead == nil {
		s.dead = fmt.Errorf("diskstore: fsync failed, store unusable: %w", err)
	}
	return s.dead
}

// commitPoint makes one durable decision once the segments rec
// references are durable: append rec to the WAL, then fsync the WAL with
// s.mu released. Caller holds s.commitMu and s.mu, and applies the
// in-memory flip only after commitPoint returns nil.
func (s *Store) commitPoint(rec []byte) error {
	if s.crash == CrashBeforeWALSync {
		return s.dieBeforeWALSync(rec)
	}
	if _, err := s.wal.append(rec); err != nil {
		return err
	}
	if s.crash == CrashAfterWALSync {
		return s.dieAfterWALSync()
	}
	return s.syncUnlocked(addTarget(nil, s.wal), false)
}

// Nodes returns the node count.
func (s *Store) Nodes() int { return len(s.nodes) }

// Node returns one node's store view.
func (s *Store) Node(id int) store.NodeStore { return s.nodes[id] }

// Recovery reports what the opening WAL replay found.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// CommitStage promotes every shard staged under the token across all
// nodes: the segments holding them are fsynced in parallel, then one
// commit record carrying the epoch is appended and fsynced — the commit
// point — and only then does the in-memory index flip. Before it queues
// for commitMu it starts those segments' writeback (hintStaged), and the
// fsyncs inside do not hint them again. Stages under the token are
// refused while it runs. The record covers exactly the shards still
// staged with the collected reference when it is appended (an
// AbortStage, or a Stage of the key under another token, may have
// dropped some during the segment fsyncs), which is what replay promotes
// for it too. An error means the stripe did not commit (after
// ErrCrashed, Open decides from what the log retained).
func (s *Store) CommitStage(stage string, epoch int) (int, error) {
	s.hintStaged(stage)
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return 0, s.dead
	}
	type flip struct {
		nd  *diskNode
		key store.ShardKey
		ref shardRef
	}
	flips := make([]flip, 0, len(s.nodes))
	segs := make([]syncTarget, 0, len(s.nodes))
	s.eachStaged(stage, func(nd *diskNode, key store.ShardKey, ref shardRef) {
		flips = append(flips, flip{nd, key, ref})
		segs = addTarget(segs, nd.segs[ref.seg])
	})
	if len(flips) == 0 {
		return 0, nil
	}
	s.committing, s.inCommit = stage, true
	defer func() { s.inCommit = false }()
	if err := s.syncUnlocked(segs, true); err != nil {
		return 0, err
	}
	kept := flips[:0]
	for _, f := range flips {
		if f.nd.staged[f.key] == (stagedRef{stage, f.ref}) {
			kept = append(kept, f)
		}
	}
	if len(kept) == 0 {
		return 0, nil
	}
	var r recBuf
	r.u8(walCommit)
	r.u64(uint64(epoch))
	r.str16(stage)
	if err := s.commitPoint(r.frame()); err != nil {
		return 0, err
	}
	for _, f := range kept {
		// An AbortStage or a restage during the WAL fsync came after the
		// record: the shard commits, and a newer stage stays parked.
		if f.nd.staged[f.key] == (stagedRef{stage, f.ref}) {
			delete(f.nd.staged, f.key)
		}
		f.ref.epoch = int64(epoch)
		s.index.put(f.nd.id, f.key, f.ref, len(s.nodes))
	}
	return len(kept), nil
}

// hintStaged starts writeback of the segments holding the token's staged
// shards, each from its synced watermark, with no lock held: a commit
// that queues behind another commit point's fsyncs has its bodies on
// their way to disk meanwhile. Only the fsyncs under commitMu make them
// durable. A Close racing it leaves the hints on closed files, where
// they do nothing. Under FsyncNever it does nothing.
func (s *Store) hintStaged(stage string) {
	if s.fsync == FsyncNever {
		return
	}
	s.mu.Lock()
	var segs []syncTarget
	if s.dead == nil {
		segs = make([]syncTarget, 0, len(s.nodes))
		s.eachStaged(stage, func(nd *diskNode, _ store.ShardKey, ref shardRef) {
			segs = addTarget(segs, nd.segs[ref.seg])
		})
	}
	s.mu.Unlock()
	startWritebacks(segs)
}

// eachStaged calls fn for every shard staged under the token, on every
// node; fn may delete the shard it is given. Caller holds s.mu.
func (s *Store) eachStaged(stage string, fn func(nd *diskNode, key store.ShardKey, ref shardRef)) {
	for _, nd := range s.nodes {
		for key, st := range nd.staged {
			if st.stage == stage {
				fn(nd, key, st.ref)
			}
		}
	}
}

// AbortStage drops every shard staged under the token. The abort record
// is appended but never individually fsynced: a lost abort and a lost
// stage recover identically (the stage is discarded).
func (s *Store) AbortStage(stage string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return 0, s.dead
	}
	dropped := 0
	s.eachStaged(stage, func(nd *diskNode, key store.ShardKey, _ shardRef) {
		delete(nd.staged, key)
		dropped++
	})
	if dropped == 0 {
		return 0, nil
	}
	var r recBuf
	r.u8(walAbort)
	r.str16(stage)
	if _, err := s.wal.append(r.frame()); err != nil {
		return dropped, err
	}
	return dropped, nil
}

// Close waits for a commit point in flight, then releases every file
// handle. The store must not be used after. Closing a store a failed
// fsync killed returns that failure.
func (s *Store) Close() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead == ErrClosed || s.dead == ErrCrashed {
		return nil // handles are gone
	}
	err := s.dead
	if err == nil && s.fsync != FsyncNever {
		err = s.wal.sync()
	}
	s.closeFiles()
	s.dead = ErrClosed
	return err
}

// closeFiles closes every open handle (crash, Close, failed Open).
func (s *Store) closeFiles() {
	if s.wal != nil {
		s.wal.close()
	}
	for _, nd := range s.nodes {
		for _, af := range nd.segs {
			af.close()
		}
		nd.segs = make(map[uint32]*appendFile)
	}
}

// --- per-node store.NodeStore implementation -------------------------

// checkNames refuses an object id or stage token the log cannot carry —
// before a byte is appended anywhere. A record holding a longer one
// would either lose its length prefix's high bits or overrun the frame
// size replay accepts, and replay cuts the log at the first frame it
// rejects: every later commit would be truncated away at the next Open.
// (Delete needs no check: it writes only for a key that is stored, and a
// stored key's put record, longer than its delete record, fit.)
func checkNames(object, stage string) error {
	if len(object) > maxNameLen || len(stage) > maxNameLen {
		return fmt.Errorf("%w: object id %d bytes, stage token %d bytes, limit %d",
			store.ErrKeyTooLong, len(object), len(stage), maxNameLen)
	}
	return nil
}

// Put commits a shard directly: body append, segment fsync, put record,
// WAL fsync (per policy) — a single-shard commit point — then the index
// flip.
func (nd *diskNode) Put(sh store.Shard) error {
	s := nd.s
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if err := checkNames(sh.Key.Object, ""); err != nil {
		return err
	}
	ref, err := nd.appendShard(sh.Key, sh.Data, sh.Epoch)
	if err != nil {
		return err
	}
	if err := s.syncUnlocked(addTarget(nil, nd.segs[ref.seg]), false); err != nil {
		return err
	}
	var r recBuf
	r.u8(walPut)
	writeRefTo(&r, nd.id, ref, sh.Key.Index, sh.Key.Chunk)
	r.str16(sh.Key.Object)
	if err := s.commitPoint(r.frame()); err != nil {
		return err
	}
	s.index.put(nd.id, sh.Key, ref, len(s.nodes))
	return nil
}

// Get looks the shard and its segment up under s.mu and reads the body
// with the lock released, so the reads of concurrent Gets overlap. A
// segment's handle is never replaced, but a Close or a crash racing the
// read may close it or cut it short: the read then fails, and Get
// returns the store's death (ErrClosed, ErrCrashed) if that is why. The
// bytes it returns otherwise are the ones on disk, a bit that Corrupt
// flipped meanwhile included.
func (nd *diskNode) Get(key store.ShardKey) (store.Shard, bool, error) {
	s := nd.s
	s.mu.Lock()
	if s.dead != nil {
		s.mu.Unlock()
		return store.Shard{}, false, s.dead
	}
	ref, ok := s.index.get(nd.id, key)
	var af *appendFile
	var err error
	if ok {
		af, err = nd.seg(ref.seg)
	}
	s.mu.Unlock()
	if !ok || err != nil {
		return store.Shard{}, false, err
	}
	data, err := nd.readBody(af, ref)
	if err != nil {
		s.mu.Lock()
		if s.dead != nil {
			err = s.dead
		}
		s.mu.Unlock()
		return store.Shard{}, false, err
	}
	return store.Shard{Key: key, Epoch: int(ref.epoch), Data: data}, true, nil
}

// readBody reads one shard's bytes from its segment af.
func (nd *diskNode) readBody(af *appendFile, ref shardRef) ([]byte, error) {
	data := make([]byte, ref.dlen)
	if _, err := readFile(af.f, data, ref.bodyOff()); err != nil {
		return nil, fmt.Errorf("diskstore: node %d seg %d: %w", nd.id, ref.seg, err)
	}
	return data, nil
}

// Delete removes the committed shard and any staged entry for the key.
// The delete record is a commit point (a forgotten delete would
// resurrect the shard at recovery); the body bytes stay in their
// segment as unreferenced garbage — archival segments are write-once,
// space reclaim is a compaction concern, not a correctness one.
func (nd *diskNode) Delete(key store.ShardKey) error {
	s := nd.s
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	_, committed := s.index.get(nd.id, key)
	st, parked := nd.staged[key]
	if !committed && !parked {
		return nil
	}
	var r recBuf
	r.u8(walDelete)
	r.u32(uint32(nd.id))
	r.u32(uint32(key.Index))
	r.u32(uint32(key.Chunk))
	r.str16(key.Object)
	if err := s.commitPoint(r.frame()); err != nil {
		return err
	}
	s.index.del(nd.id, key)
	// A stage of the key during the WAL fsync came after the record and
	// survives it, in memory as in replay.
	if cur, ok := nd.staged[key]; parked && ok && cur == st {
		delete(nd.staged, key)
	}
	return nil
}

// Stage parks a shard under the token: body append plus a stage record,
// neither individually fsynced under the default policy — durability
// comes at the commit point, which fsyncs in the right order. A token
// whose CommitStage is in flight is refused.
func (nd *diskNode) Stage(stage string, sh store.Shard) error {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	if err := checkNames(sh.Key.Object, stage); err != nil {
		return err
	}
	if s.inCommit && s.committing == stage {
		return fmt.Errorf("%w: %q", errStageCommitting, stage)
	}
	ref, err := nd.appendShard(sh.Key, sh.Data, sh.Epoch)
	if err != nil {
		return err
	}
	var r recBuf
	r.u8(walStage)
	writeRefTo(&r, nd.id, ref, sh.Key.Index, sh.Key.Chunk)
	r.str16(sh.Key.Object)
	r.str16(stage)
	if _, err := s.wal.append(r.frame()); err != nil {
		return err
	}
	nd.staged[sh.Key] = stagedRef{stage: stage, ref: ref}
	return nil
}

func (nd *diskNode) StagedOwner(key store.ShardKey) (string, bool) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := nd.staged[key]
	return st.stage, ok
}

func (nd *diskNode) StagedCount() int {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(nd.staged)
}

func (nd *diskNode) ShardLen(key store.ShardKey) (int, bool) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index.get(nd.id, key)
	return int(ref.dlen), ok
}

// Corrupt flips one bit of the shard's bytes in place on disk —
// injected rot that deliberately violates the append-only discipline,
// because that is what rot does. No fsync: the flip rides whatever
// durability the segment already had.
func (nd *diskNode) Corrupt(key store.ShardKey, bit int) bool {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return false
	}
	ref, ok := s.index.get(nd.id, key)
	if !ok || bit < 0 || bit >= int(ref.dlen)*8 {
		return false
	}
	af, err := nd.seg(ref.seg)
	if err != nil {
		return false
	}
	pos := ref.bodyOff() + int64(bit/8)
	var b [1]byte
	if _, err := af.f.ReadAt(b[:], pos); err != nil {
		return false
	}
	b[0] ^= 1 << (bit % 8)
	_, err = af.f.WriteAt(b[:], pos)
	return err == nil
}

func (nd *diskNode) Snapshot() ([]store.Shard, error) {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	out := []store.Shard{}
	var rerr error
	s.index.each(nd.id, func(key store.ShardKey, ref shardRef) {
		af, err := nd.seg(ref.seg)
		var data []byte
		if err == nil {
			data, err = nd.readBody(af, ref)
		}
		if err != nil {
			rerr = err
			return
		}
		out = append(out, store.Shard{Key: key, Epoch: int(ref.epoch), Data: data})
	})
	if rerr != nil {
		return nil, rerr
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		if a.Chunk != b.Chunk {
			return a.Chunk < b.Chunk
		}
		return a.Index < b.Index
	})
	return out, nil
}

func (nd *diskNode) StoredBytes() int64 {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	s.index.each(nd.id, func(_ store.ShardKey, ref shardRef) { total += int64(ref.dlen) })
	for _, st := range nd.staged {
		total += int64(st.ref.dlen)
	}
	return total
}

func (nd *diskNode) ObjectBytes(object string) int64 {
	s := nd.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	s.index.each(nd.id, func(key store.ShardKey, ref shardRef) {
		if key.Object == object {
			total += int64(ref.dlen)
		}
	})
	for key, st := range nd.staged {
		if key.Object == object {
			total += int64(st.ref.dlen)
		}
	}
	return total
}
