package diskstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"

	"securearchive/internal/store"
)

// RecoveryReport describes what Open's WAL replay found and repaired.
type RecoveryReport struct {
	// WALBytesDropped counts log bytes truncated from a torn or corrupt
	// tail (records that never reached their fsync).
	WALBytesDropped int64
	// OrphanedStages counts staged shards discarded because their stage
	// token never reached a commit record.
	OrphanedStages int
	// InvalidRefs counts WAL records dropped because their segment
	// reference failed validation (bytes torn or missing). A committed
	// record's bodies were fsynced first, so only the "never" policy or
	// damage outside the protocol leaves one invalid; a stage record can
	// be, when a later WAL fsync made it durable but not its body.
	InvalidRefs int
	// Shards is the number of committed shards indexed after replay.
	Shards int
}

// replay rebuilds the in-memory indexes from the WAL. Rules, in order:
//
//  1. Frames are consumed until the first torn or corrupt one; the log
//     is truncated there. A record is durable only if its whole frame
//     is — the protocol fsyncs the log at every commit point, so
//     everything after a torn frame predates a commit and is droppable.
//  2. Each stage/put record's segment reference is cross-checked
//     against the segment's own header (checkSegHeader); a mismatch
//     drops the record, never the store.
//  3. Commit records promote their token's staged entries with the
//     record's epoch; abort and delete records drop state.
//  4. Stages still parked when the log ends are orphans — their commit
//     never became durable — and are discarded.
//
// Called from Open with no concurrent access.
func (s *Store) replay() error {
	blob, err := os.ReadFile(filepath.Join(s.dir, "wal"))
	if err != nil {
		return err
	}
	off := int64(0)
	for {
		rest := blob[off:]
		if len(rest) == 0 {
			break
		}
		if len(rest) < 8 {
			break // torn header
		}
		plen := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if plen > walMaxPayload || int(plen) > len(rest)-8 {
			break // absurd length or torn payload
		}
		payload := rest[8 : 8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt frame
		}
		s.applyRecord(payload)
		off += 8 + int64(plen)
	}
	if dropped := int64(len(blob)) - off; dropped > 0 {
		s.recovery.WALBytesDropped = dropped
		if err := s.wal.truncate(off); err != nil {
			return err
		}
	}
	for _, nd := range s.nodes {
		for key := range nd.staged {
			delete(nd.staged, key)
			s.recovery.OrphanedStages++
		}
	}
	for _, stripe := range s.index {
		s.recovery.Shards += len(stripe)
	}
	return nil
}

// applyRecord replays one decoded frame. Malformed or unreplayable
// records are dropped individually (counted as InvalidRefs when a
// segment reference was at fault).
func (s *Store) applyRecord(payload []byte) {
	r := newRecReader(payload)
	switch r.u8() {
	case walStage:
		rec := readShardRecord(r, true)
		if !r.ok || rec.node < 0 || rec.node >= len(s.nodes) {
			s.recovery.InvalidRefs++
			return
		}
		nd := s.nodes[rec.node]
		if !nd.validRef(rec) {
			s.recovery.InvalidRefs++
			return
		}
		key := store.ShardKey{Object: rec.object, Index: rec.index, Chunk: rec.chunk}
		nd.staged[key] = stagedRef{stage: rec.stage, ref: rec.ref}
	case walPut:
		rec := readShardRecord(r, false)
		if !r.ok || rec.node < 0 || rec.node >= len(s.nodes) {
			s.recovery.InvalidRefs++
			return
		}
		nd := s.nodes[rec.node]
		if !nd.validRef(rec) {
			s.recovery.InvalidRefs++
			return
		}
		key := store.ShardKey{Object: rec.object, Index: rec.index, Chunk: rec.chunk}
		s.index.put(rec.node, key, rec.ref, len(s.nodes))
	case walCommit:
		epoch := int64(r.u64())
		stage := r.str16()
		if !r.ok {
			return
		}
		for _, nd := range s.nodes {
			for key, st := range nd.staged {
				if st.stage != stage {
					continue
				}
				st.ref.epoch = epoch
				s.index.put(nd.id, key, st.ref, len(s.nodes))
				delete(nd.staged, key)
			}
		}
	case walAbort:
		stage := r.str16()
		if !r.ok {
			return
		}
		for _, nd := range s.nodes {
			for key, st := range nd.staged {
				if st.stage == stage {
					delete(nd.staged, key)
				}
			}
		}
	case walDelete:
		node := int(r.u32())
		index := int(r.u32())
		chunk := int(r.u32())
		object := r.str16()
		if !r.ok || node < 0 || node >= len(s.nodes) {
			return
		}
		key := store.ShardKey{Object: object, Index: index, Chunk: chunk}
		s.index.del(node, key)
		delete(s.nodes[node].staged, key)
	}
}

// validRef cross-checks a replayed reference against the segment bytes
// it claims to describe. A segment number the node never allocated (0,
// or at or above next, which scanSegments put past every segment file)
// is refused before anything is opened: seg would create the file.
func (nd *diskNode) validRef(rec walShardRecord) bool {
	if rec.ref.seg == 0 || rec.ref.seg >= nd.next {
		return false
	}
	af, err := nd.seg(rec.ref.seg)
	if err != nil {
		return false
	}
	return checkSegHeader(af.f, af.size, rec.ref, rec.object, rec.index, rec.chunk) == nil
}
