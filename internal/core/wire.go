package core

import (
	"encoding/binary"
	"errors"

	"securearchive/internal/lrss"
	"securearchive/internal/shamir"
)

// errTruncated reports a malformed serialised share.
var errTruncated = errors.New("core: truncated share encoding")

// encodeLRSSShare serialises one LRSS share for node storage:
//
//	u32 index ‖ u8 t ‖ u32 secretLen ‖
//	u32 len(source) ‖ source ‖ u32 len(masked) ‖ masked ‖
//	u32 count ‖ count × ( u8 x ‖ u8 t ‖ u32 len ‖ payload )
func encodeLRSSShare(s lrss.Share) []byte {
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Index))
	buf = append(buf, s.T)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.SecretLen))
	buf = appendBytes(buf, s.Source)
	buf = appendBytes(buf, s.Masked)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.SeedShares)))
	for _, ss := range s.SeedShares {
		buf = append(buf, ss.X, ss.Threshold)
		buf = appendBytes(buf, ss.Payload)
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errTruncated
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < n {
		return nil, nil, errTruncated
	}
	return buf[:n], buf[n:], nil
}

// decodeLRSSShare reverses encodeLRSSShare.
func decodeLRSSShare(buf []byte) (lrss.Share, error) {
	var s lrss.Share
	if len(buf) < 9 {
		return s, errTruncated
	}
	s.Index = int(binary.BigEndian.Uint32(buf))
	s.T = buf[4]
	s.SecretLen = int(binary.BigEndian.Uint32(buf[5:]))
	buf = buf[9:]
	var err error
	if s.Source, buf, err = readBytes(buf); err != nil {
		return s, err
	}
	if s.Masked, buf, err = readBytes(buf); err != nil {
		return s, err
	}
	if len(buf) < 4 {
		return s, errTruncated
	}
	count := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	// Each seed share occupies at least 6 bytes (x, t, u32 len); a count
	// the remaining buffer cannot hold is malformed, not a huge alloc.
	if count < 0 || count > len(buf)/6 {
		return s, errTruncated
	}
	s.SeedShares = make([]shamir.Share, count)
	for i := 0; i < count; i++ {
		if len(buf) < 2 {
			return s, errTruncated
		}
		x, t := buf[0], buf[1]
		buf = buf[2:]
		var payload []byte
		if payload, buf, err = readBytes(buf); err != nil {
			return s, err
		}
		s.SeedShares[i] = shamir.Share{X: x, Threshold: t, Payload: payload}
	}
	return s, nil
}
