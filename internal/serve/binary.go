package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// Content types negotiated on POST /v1/report. Negotiation is per batch:
// a client advertises an encoding by posting with its content type; a
// server that does not speak it answers 415 (Unsupported Media Type) and
// the client falls back to JSON, which every server speaks.
const (
	// ContentTypeJSON is the compatible default batch encoding: a JSON
	// envelope whose bit-packed payloads travel as base64.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary is the negotiated flat little-endian batch
	// framing: the batch header followed by packed payloads exactly as
	// fo.Report.Packed holds them — no base64, no per-report JSON.
	ContentTypeBinary = "application/x-ldpids-batch"
)

// Wire names a report-batch encoding, for -wire flags and the byte
// accounting of Backend.FrameOverhead.
type Wire string

const (
	// WireJSON selects the JSON+base64 batch encoding (the default).
	WireJSON Wire = "json"
	// WireBinary selects the flat little-endian batch framing.
	WireBinary Wire = "binary"
)

// ParseWire parses a -wire flag value.
func ParseWire(s string) (Wire, error) {
	switch Wire(s) {
	case "", WireJSON:
		return WireJSON, nil
	case WireBinary:
		return WireBinary, nil
	default:
		return "", fmt.Errorf("serve: unknown wire %q (want json or binary)", s)
	}
}

// The binary batch framing (all integers little-endian):
//
//	magic   "LDPB"                        4 bytes
//	version 0x01                          1 byte
//	round   int64                         8 bytes
//	token   length byte + raw bytes       1 + len
//	count   uint32                        4 bytes
//	count reports, each:
//	  user  uint32                        4 bytes
//	  kind  byte                          1 byte
//	  payload by kind:
//	    value    value int32              4 bytes
//	    unary    len uint32 + len bytes   4 + len
//	    packed   words uint32 + 8*words   4 + 8*words (fo packed layout)
//	    hash     value int32 + seed       4 + 8 bytes
//	    cohort   value int32 + cohort     4 + 8 bytes
//	    numeric  float64 bits             8 bytes
//
// Unary and packed reports decode to Value -1, the in-memory convention;
// trailing bytes after the last report are malformed.
const (
	binaryMagic   = "LDPB"
	binaryVersion = 1
)

// Binary kind tags. These are wire constants: their values are part of
// the format and must never be renumbered.
const (
	bwValue   = 0
	bwUnary   = 1
	bwPacked  = 2
	bwHash    = 3
	bwCohort  = 4
	bwNumeric = 5
)

// binaryKindNames maps a kind tag to the kind string of the canonical
// report (history.Report), so both wires decode to — and journal —
// identical batches.
var binaryKindNames = [...]string{
	bwValue: "value", bwUnary: "unary", bwPacked: "packed",
	bwHash: "hash", bwCohort: "cohort", bwNumeric: "numeric",
}

// binaryShape returns the wire tag and the framed size — user id, tag and
// payload — of one contribution.
func binaryShape(c collect.Contribution) (tag byte, size int, err error) {
	if c.Numeric {
		return bwNumeric, 5 + 8, nil
	}
	switch r := c.Report; r.Kind {
	case fo.KindValue:
		return bwValue, 5 + 4, nil
	case fo.KindUnary:
		return bwUnary, 5 + 4 + len(r.Bits), nil
	case fo.KindPacked:
		if len(r.Packed)%8 != 0 {
			return 0, 0, fmt.Errorf("serve: packed payload of %d bytes is not a whole number of words", len(r.Packed))
		}
		return bwPacked, 5 + 4 + len(r.Packed), nil
	case fo.KindHash:
		return bwHash, 5 + 12, nil
	case fo.KindCohort:
		return bwCohort, 5 + 12, nil
	default:
		return 0, 0, fmt.Errorf("serve: cannot binary-encode report kind %s", r.Kind)
	}
}

// encodeBinary renders the chunk in the binary framing straight from the
// contributions (a packed payload is the frame's bytes already: one copy,
// never through a canonical report) into frame's storage, which is sized
// exactly up front: a caller that hands the returned frame back allocates
// nothing.
func (k chunk) encodeBinary(frame []byte) ([]byte, error) {
	if len(k.token) > 255 {
		return nil, fmt.Errorf("serve: round token of %d bytes exceeds the binary framing's 255", len(k.token))
	}
	size := 4 + 1 + 8 + 1 + len(k.token) + 4 // magic, version, round, token, count
	for i, c := range k.contribs {
		if u := k.users[i]; u < 0 || int64(u) > math.MaxUint32 {
			return nil, fmt.Errorf("serve: user id %d outside the binary framing's uint32 range", u)
		}
		_, n, err := binaryShape(c)
		if err != nil {
			return nil, err
		}
		size += n
	}
	if cap(frame) < size {
		frame = make([]byte, size)
	}
	frame = frame[:size]
	le := binary.LittleEndian
	copy(frame, binaryMagic)
	frame[4] = binaryVersion
	le.PutUint64(frame[5:], uint64(k.round))
	frame[13] = byte(len(k.token))
	off := 14 + copy(frame[14:], k.token)
	le.PutUint32(frame[off:], uint32(len(k.contribs)))
	off += 4
	for i, c := range k.contribs {
		tag, n, _ := binaryShape(c)
		le.PutUint32(frame[off:], uint32(k.users[i]))
		frame[off+4] = tag
		p := frame[off+5 : off+n]
		off += n
		switch r := c.Report; tag {
		case bwValue:
			le.PutUint32(p, uint32(int32(r.Value)))
		case bwUnary:
			le.PutUint32(p, uint32(len(r.Bits)))
			copy(p[4:], r.Bits)
		case bwPacked:
			le.PutUint32(p, uint32(len(r.Packed)/8))
			copy(p[4:], r.Packed)
		case bwHash, bwCohort:
			le.PutUint32(p, uint32(int32(r.Value)))
			le.PutUint64(p[4:], r.Seed)
		case bwNumeric:
			le.PutUint64(p, math.Float64bits(c.Value))
		}
	}
	return frame, nil
}

// ingestScratch is the memory one report request decodes into, pooled so
// that decoding and folding a binary batch allocates nothing once the pool
// is warm: the request body (ReadFrame sizes it) and the batch parsed out
// of it, whose payloads alias the body all the way into the aggregator —
// a packed report is copied once on the server, from the frame into the
// accumulator's batch buffer.
type ingestScratch struct {
	frame   []byte
	reports []history.Report
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// decodeBinary reads one binary batch of at most limit bytes (ReadFrame's
// sizing hint) into s. The whole framing is validated before anything is
// returned — every report parses, and no trailing bytes follow the last
// one — so a structurally broken batch folds nothing, exactly like a JSON
// batch that fails to decode; the count cap lands before that walk, so a
// lying count cannot buy O(count) validation work. The batch aliases s and
// is valid until s returns to its pool. A header that parsed is returned
// even when the reports did not, for the refusal's journal record.
func decodeBinary(body io.Reader, limit int64, maxBatch int, s *ingestScratch) (wireBatch, error) {
	data, err := ReadFrame(body, s.frame, limit)
	s.frame = data[:0]
	if err != nil {
		return wireBatch{}, err
	}
	b, count, data, err := parseBinaryHeader(data)
	if err != nil {
		return b, err
	}
	if count > maxBatch {
		return b, batchTooLargeError{count, maxBatch}
	}
	reports, off := s.reports[:0], 0
	for i := 0; i < count; i++ {
		var r history.Report
		if r, off, err = parseBinaryReport(data, off); err != nil {
			return b, fmt.Errorf("report %d: %w", i, err)
		}
		reports = append(reports, r)
	}
	s.reports = reports[:0]
	if off != len(data) {
		return b, fmt.Errorf("serve: %d trailing bytes after the last report", len(data)-off)
	}
	b.reports = reports
	return b, nil
}

// parseBinaryHeader parses and validates the batch header, returning the
// claimed report count and the raw report region after the header. The
// token aliases data.
func parseBinaryHeader(data []byte) (b wireBatch, count int, reports []byte, err error) {
	if len(data) < len(binaryMagic)+1 {
		return b, 0, nil, fmt.Errorf("serve: binary batch of %d bytes is shorter than its magic", len(data))
	}
	if string(data[:4]) != binaryMagic {
		return b, 0, nil, fmt.Errorf("serve: bad binary batch magic %q", data[:4])
	}
	if data[4] != binaryVersion {
		return b, 0, nil, fmt.Errorf("serve: unknown binary batch version %d", data[4])
	}
	off := 5
	if len(data)-off < 9 {
		return b, 0, nil, fmt.Errorf("serve: binary batch truncated in its header")
	}
	b.round = int64(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	tokenLen := int(data[off])
	off++
	if len(data)-off < tokenLen+4 {
		return b, 0, nil, fmt.Errorf("serve: binary batch truncated in its token")
	}
	b.token = data[off : off+tokenLen]
	off += tokenLen
	count = int(binary.LittleEndian.Uint32(data[off:]))
	return b, count, data[off+4:], nil
}

// parseBinaryReport parses the report at data[off:] into the canonical
// shape, returning it and the offset of the next one. Bits and Packed
// alias data. Every length field is bounds-checked against the remaining
// bytes, so a lying length cannot reach past the body.
func parseBinaryReport(data []byte, off int) (history.Report, int, error) {
	var r history.Report
	if len(data)-off < 5 {
		return r, 0, fmt.Errorf("serve: binary report truncated in its header")
	}
	r.User = int(binary.LittleEndian.Uint32(data[off:]))
	kind := data[off+4]
	off += 5
	if int(kind) >= len(binaryKindNames) {
		return r, 0, fmt.Errorf("serve: unknown binary report kind %d", kind)
	}
	r.Kind = binaryKindNames[kind]
	need := func(n int) bool { return len(data)-off >= n }
	switch kind {
	case bwValue:
		if !need(4) {
			return r, 0, fmt.Errorf("serve: value report truncated")
		}
		r.Value = int(int32(binary.LittleEndian.Uint32(data[off:])))
		off += 4
	case bwUnary:
		if !need(4) {
			return r, 0, fmt.Errorf("serve: unary report truncated in its length")
		}
		n := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if uint64(n) > uint64(len(data)-off) {
			return r, 0, fmt.Errorf("serve: unary report claims %d bytes, only %d remain", n, len(data)-off)
		}
		r.Value = -1
		r.Bits = data[off : off+int(n)]
		off += int(n)
	case bwPacked:
		if !need(4) {
			return r, 0, fmt.Errorf("serve: packed report truncated in its word count")
		}
		words := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if uint64(words)*8 > uint64(len(data)-off) {
			return r, 0, fmt.Errorf("serve: packed report claims %d words, only %d bytes remain", words, len(data)-off)
		}
		r.Value = -1
		r.Packed = data[off : off+8*int(words)]
		off += 8 * int(words)
	case bwHash, bwCohort:
		if !need(12) {
			return r, 0, fmt.Errorf("serve: %s report truncated", r.Kind)
		}
		r.Value = int(int32(binary.LittleEndian.Uint32(data[off:])))
		r.Seed = binary.LittleEndian.Uint64(data[off+4:])
		off += 12
	case bwNumeric:
		if !need(8) {
			return r, 0, fmt.Errorf("serve: numeric report truncated")
		}
		r.Num = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return r, off, nil
}

// mediaType extracts the essence of a Content-Type header: parameters
// stripped, trimmed, lowercased (already-lowercase headers, the common
// case, do not allocate).
func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// ReadFrame reads r to EOF into buf's storage; the caller keeps the
// returned buffer for the next request. limit is the most the body may
// hold: its declared Content-Length, capped at MaxBody. A warm buffer that
// fits it is not touched; a cold one grows toward it, but a declared length
// buys no memory by itself — each step at most doubles the bytes actually
// received (from a 64 KiB floor), so a request that declares 64 MiB and
// drips holds what it sent, and an honest cold 4 MiB frame costs under one
// extra copy.
func ReadFrame(r io.Reader, buf []byte, limit int64) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			size := int64(max(2*len(buf), 64<<10))
			if int64(len(buf)) <= limit {
				size = min(size, limit)
			}
			// One spare byte, so the read that finds EOF has room to.
			buf = append(make([]byte, 0, size+1), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
