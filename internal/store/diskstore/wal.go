package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
)

// The write-ahead log is the store's source of truth: segment files hold
// shard bodies, but a shard exists only if the WAL says so. Records are
// metadata-only (a few dozen bytes — the bodies already live in
// segments), framed as
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// and replayed in order at Open. A torn or corrupt frame ends the log:
// everything from it on is truncated — those records never reached a
// commit point, so dropping them is exactly the stage-discarding
// semantics the protocol promises.
//
// Payloads begin with a one-byte type:
//
//	walStage  — node staged a shard under a token (body already appended
//	            to a segment; the record carries the segment reference)
//	walPut    — node committed a shard directly (un-staged write)
//	walCommit — every shard staged under the token is promoted, stamped
//	            with the record's epoch. The fsync of this record is THE
//	            commit point for multi-shard writes.
//	walAbort  — every shard staged under the token is dropped
//	walDelete — node dropped the committed shard and any staged entry
//	            for the key

const (
	walStage  = 1
	walPut    = 2
	walCommit = 3
	walAbort  = 4
	walDelete = 5

	// walMaxPayload bounds a frame during replay: anything larger is
	// treated as corruption (real payloads are tiny — an object id, a
	// stage token, fixed-width refs).
	walMaxPayload = 1 << 16
)

// appendFile is an append-only file that tracks which prefix has been
// fsynced — the watermark crash injection truncates back to, simulating
// the loss of everything still sitting in the page cache at power cut.
type appendFile struct {
	f      *os.File
	size   int64         // logical end of file (all appended bytes)
	synced int64         // bytes known durable (last fsync)
	wb     writebackHint // set up once, when the file is opened
}

// openAppend opens (creating if needed) path for appending and reading.
// The existing contents are assumed durable: size and synced start at
// the current length.
func openAppend(path string) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	a := &appendFile{f: f, size: fi.Size(), synced: fi.Size()}
	a.wb.open(f)
	return a, nil
}

// append writes b at the logical end and returns its offset.
func (a *appendFile) append(b []byte) (int64, error) {
	off := a.size
	if _, err := a.f.WriteAt(b, off); err != nil {
		return 0, err
	}
	a.size += int64(len(b))
	return off, nil
}

// syncFile is every fsync the store issues. It is a variable only so
// that tests can hold or fail an fsync; nothing else assigns it.
var syncFile = (*os.File).Sync

// startWriteback is every writeback hint the store issues
// (startWritebacks): it asks the kernel to start writing a back from
// offset from to its end. It is only a hint: it waits for nothing, makes
// nothing durable, raises no watermark, and does nothing once the file
// is closed. It is a variable only so that tests can record the hints;
// nothing else assigns it.
var startWriteback = func(a *appendFile, from int64) { a.wb.start(from) }

// readFile is every shard-body read the store issues (readBody). It is
// a variable only so that tests can hold a read; nothing else assigns
// it.
var readFile = (*os.File).ReadAt

// sync fsyncs and advances the durable watermark.
func (a *appendFile) sync() error {
	if a.synced == a.size {
		return nil
	}
	if err := syncFile(a.f); err != nil {
		return err
	}
	a.synced = a.size
	return nil
}

// syncTarget is a file to fsync, its synced watermark when the target
// was taken (where its writeback starts) and its size then: the prefix
// the fsync is sure to cover, whatever is appended while it runs.
type syncTarget struct {
	af         *appendFile
	from, size int64
}

// addTarget lists af at its current watermark and size unless it has
// nothing unsynced or is listed already. Caller holds s.mu, which guards
// both.
func addTarget(ts []syncTarget, af *appendFile) []syncTarget {
	if af.synced >= af.size {
		return ts
	}
	for _, t := range ts {
		if t.af == af {
			return ts
		}
	}
	return append(ts, syncTarget{af, af.synced, af.size})
}

// startWritebacks hints every target's unsynced range, from the
// watermark the target captured, one file after another on the caller's
// goroutine, so all the files' pages are in flight before an fsync
// blocks. It touches no watermark, so it may run without s.mu.
func startWritebacks(ts []syncTarget) {
	for _, t := range ts {
		startWriteback(t.af, t.from)
	}
}

// syncParallel fsyncs every target's file, one goroutine per file, and
// returns once all have finished. Only these fsyncs make anything
// durable; the caller has started the targets' writeback first
// (startWritebacks), so they wait on writes already under way instead of
// each starting its own. It touches no watermark (a target carries the
// size it covers), so it may run without the lock that guards them.
func syncParallel(ts []syncTarget) error {
	if len(ts) == 1 {
		return syncFile(ts[0].af.f)
	}
	errs := make([]error, len(ts))
	var wg sync.WaitGroup
	wg.Add(len(ts))
	for i, t := range ts {
		go func() {
			defer wg.Done()
			errs[i] = syncFile(t.af.f)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// truncate cuts the file to n bytes (crash simulation and torn-tail
// recovery).
func (a *appendFile) truncate(n int64) error {
	if err := a.f.Truncate(n); err != nil {
		return err
	}
	a.size = n
	if a.synced > n {
		a.synced = n
	}
	return nil
}

func (a *appendFile) close() error { return a.f.Close() }

// recBuf builds a record payload.
type recBuf struct{ b []byte }

func (r *recBuf) u8(v uint8)   { r.b = append(r.b, v) }
func (r *recBuf) u32(v uint32) { r.b = binary.LittleEndian.AppendUint32(r.b, v) }
func (r *recBuf) u64(v uint64) { r.b = binary.LittleEndian.AppendUint64(r.b, v) }
func (r *recBuf) str16(s string) {
	r.b = binary.LittleEndian.AppendUint16(r.b, uint16(len(s)))
	r.b = append(r.b, s...)
}

// frame wraps the payload with the length+CRC header.
func (r *recBuf) frame() []byte {
	out := make([]byte, 8, 8+len(r.b))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(r.b)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(r.b))
	return append(out, r.b...)
}

// recReader decodes a record payload; any overrun marks it bad and
// zero-values every subsequent read, so callers check ok once at the end.
type recReader struct {
	b  []byte
	ok bool
}

func newRecReader(b []byte) *recReader { return &recReader{b: b, ok: true} }

func (r *recReader) take(n int) []byte {
	if !r.ok || len(r.b) < n {
		r.ok = false
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *recReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *recReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *recReader) str16() string {
	n := r.take(2)
	if n == nil {
		return ""
	}
	return string(r.take(int(binary.LittleEndian.Uint16(n))))
}

// shardRef locates one shard's body inside a node's segment files. It is
// the in-memory index entry — one per stored shard, the bulk of what an
// object keeps resident — so its fields are as narrow as the store's own
// limits allow (24 bytes): segments end by maxSegmentBytes (4 GiB), the
// WAL carries dlen as a u32, and object ids end by maxNameLen. The WAL
// and segment formats stay wider and are unchanged.
type shardRef struct {
	seg   uint32 // segment number
	off   uint32 // offset of the record header within the segment
	dlen  uint32 // body length
	klen  uint16 // object-id length (data begins at off+segHeaderLen+klen)
	epoch int64  // epoch stamped at commit (or put) time
}

// bodyOff is the segment offset of the shard's data bytes.
func (ref shardRef) bodyOff() int64 { return int64(ref.off) + segHeaderLen + int64(ref.klen) }

// writeRefTo appends the fixed-width half of a stage/put record.
func writeRefTo(r *recBuf, node int, ref shardRef, index, chunk int) {
	r.u32(uint32(node))
	r.u64(uint64(ref.seg))
	r.u64(uint64(ref.off))
	r.u32(ref.dlen)
	r.u32(uint32(index))
	r.u32(uint32(chunk))
	r.u64(uint64(ref.epoch))
}

// walShardRecord is the decoded form of a stage/put record.
type walShardRecord struct {
	node         int
	ref          shardRef
	index, chunk int
	object       string
	stage        string // empty for walPut
}

// readShardRecord decodes a stage/put record. A segment number or offset
// no store within maxSegmentBytes could have written marks it bad.
func readShardRecord(r *recReader, staged bool) walShardRecord {
	var rec walShardRecord
	rec.node = int(r.u32())
	seg, off := r.u64(), r.u64()
	if seg > math.MaxUint32 || off > math.MaxUint32 {
		r.ok = false
	}
	rec.ref.seg, rec.ref.off = uint32(seg), uint32(off)
	rec.ref.dlen = r.u32()
	rec.index = int(r.u32())
	rec.chunk = int(r.u32())
	rec.ref.epoch = int64(r.u64())
	rec.object = r.str16()
	rec.ref.klen = uint16(len(rec.object))
	if staged {
		rec.stage = r.str16()
	}
	return rec
}

// Segment records: each shard body is appended as
//
//	u32 magic "SEGR" | u16 klen | u16 zero | u32 index | u32 chunk |
//	u32 dlen | object (klen bytes) | data (dlen bytes)
//
// The header is redundant with the WAL reference — recovery uses it to
// reject references into torn or foreign bytes, and it makes segments
// self-describing for offline salvage tooling.

const (
	segMagic     = 0x53454752 // "SEGR"
	segHeaderLen = 20
)

// segRecord builds one segment record.
func segRecord(object string, index, chunk int, data []byte) []byte {
	out := make([]byte, segHeaderLen, segHeaderLen+len(object)+len(data))
	binary.LittleEndian.PutUint32(out[0:4], segMagic)
	binary.LittleEndian.PutUint16(out[4:6], uint16(len(object)))
	binary.LittleEndian.PutUint32(out[8:12], uint32(index))
	binary.LittleEndian.PutUint32(out[12:16], uint32(chunk))
	binary.LittleEndian.PutUint32(out[16:20], uint32(len(data)))
	out = append(out, object...)
	return append(out, data...)
}

// checkSegHeader verifies that the bytes at ref in file f describe the
// given key — the recovery cross-check that a WAL reference points at a
// fully written record and not into a torn tail.
func checkSegHeader(f *os.File, fileSize int64, ref shardRef, object string, index, chunk int) error {
	end := ref.bodyOff() + int64(ref.dlen)
	if end > fileSize {
		return fmt.Errorf("diskstore: ref beyond segment end (%d > %d)", end, fileSize)
	}
	hdr := make([]byte, segHeaderLen+int(ref.klen))
	if _, err := f.ReadAt(hdr, int64(ref.off)); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != segMagic ||
		binary.LittleEndian.Uint16(hdr[4:6]) != ref.klen ||
		int(binary.LittleEndian.Uint32(hdr[8:12])) != index ||
		int(binary.LittleEndian.Uint32(hdr[12:16])) != chunk ||
		binary.LittleEndian.Uint32(hdr[16:20]) != ref.dlen ||
		string(hdr[segHeaderLen:]) != object {
		return fmt.Errorf("diskstore: segment header mismatch for %s[%d] chunk %d", object, index, chunk)
	}
	return nil
}
