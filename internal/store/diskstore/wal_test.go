package diskstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"securearchive/internal/store"
)

// FuzzWALShardRecord fuzzes the stage/put record codec from both ends.
//
// Encoder side: a record built from the fuzzed fields with writeRefTo and
// str16, each name cut to maxNameLen, must fit a frame replay accepts and
// decode through frame and readShardRecord to exactly those fields.
//
// Decoder side: applyRecord must survive any payload. A stage or put
// record whose u64 segment number or offset is above MaxUint32 must be
// refused even when its low 32 bits point at a real segment record,
// because the in-memory ref keeps only those low bits; with both high
// halves zero the same record is accepted.
func FuzzWALShardRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, node uint16, seg, off uint64, dlen, index, chunk uint32,
		epoch int64, object, stage string, put bool, raw []byte) {
		object, stage = clipName(object), clipName(stage)
		kind := byte(walStage)
		if put {
			kind, stage = walPut, ""
		}
		ref := shardRef{seg: uint32(seg), off: uint32(off), dlen: dlen, klen: uint16(len(object)), epoch: epoch}
		var r recBuf
		r.u8(kind)
		writeRefTo(&r, int(node), ref, int(index), int(chunk))
		r.str16(object)
		if !put {
			r.str16(stage)
		}
		fr := r.frame()
		payload := fr[8:]
		if len(payload) > walMaxPayload || binary.LittleEndian.Uint32(fr[0:4]) != uint32(len(payload)) ||
			binary.LittleEndian.Uint32(fr[4:8]) != crc32.ChecksumIEEE(payload) {
			t.Fatalf("frame header does not describe its %d-byte payload", len(payload))
		}
		rd := newRecReader(payload)
		if got := rd.u8(); got != kind {
			t.Fatalf("record type %d, want %d", got, kind)
		}
		got := readShardRecord(rd, !put)
		want := walShardRecord{node: int(node), ref: ref, index: int(index), chunk: int(chunk), object: object, stage: stage}
		if !rd.ok || len(rd.b) != 0 || got != want {
			t.Fatalf("decoded %+v (ok %v, %d bytes left), want %+v", got, rd.ok, len(rd.b), want)
		}

		s := mustOpen(t, t.TempDir(), 2, WithFsync(FsyncNever))
		defer s.Close()
		k := store.ShardKey{Object: "obj", Index: 1, Chunk: 2}
		if err := s.Node(0).Stage("real", store.Shard{Key: k, Epoch: 3, Data: []byte("body")}); err != nil {
			t.Fatal(err)
		}
		at := s.nodes[0].staged[k].ref
		wide := func(low uint32, v uint64) uint64 { return v&^math.MaxUint32 | uint64(low) }
		wSeg, wOff := wide(at.seg, seg), wide(at.off, off)
		var w recBuf
		w.u8(walStage)
		w.u32(0)
		w.u64(wSeg)
		w.u64(wOff)
		w.u32(at.dlen)
		w.u32(uint32(k.Index))
		w.u32(uint32(k.Chunk))
		w.u64(uint64(at.epoch))
		w.str16(k.Object)
		w.str16("fuzz")
		s.applyRecord(w.b)
		accepted := s.nodes[0].staged[k].stage == "fuzz"
		if high := wSeg > math.MaxUint32 || wOff > math.MaxUint32; accepted == high {
			t.Fatalf("ref seg %#x off %#x: accepted %v", wSeg, wOff, accepted)
		}

		invalid := s.recovery.InvalidRefs
		s.applyRecord(raw)
		if len(raw) >= 21 && (raw[0] == walStage || raw[0] == walPut) &&
			(binary.LittleEndian.Uint64(raw[5:13]) > math.MaxUint32 || binary.LittleEndian.Uint64(raw[13:21]) > math.MaxUint32) &&
			s.recovery.InvalidRefs != invalid+1 {
			t.Fatalf("record with a ref above MaxUint32 was not refused: % x", raw)
		}
	})
}

func clipName(s string) string {
	if len(s) > maxNameLen {
		return s[:maxNameLen]
	}
	return s
}
