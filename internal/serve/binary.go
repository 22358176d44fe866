package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

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
	// framing: the batch header followed by packed-word payloads exactly
	// as fo lays them out — no base64, no per-report JSON.
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

// le32/le64 append little-endian integers.
func le32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(buf []byte, v uint64) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// encodeBinary renders one report batch in the binary framing. Packed
// payloads are already little-endian word bytes in the canonical report,
// so they copy straight onto the wire.
func encodeBinary(batch reportBatch) ([]byte, error) {
	if len(batch.Token) > 255 {
		return nil, fmt.Errorf("serve: round token of %d bytes exceeds the binary framing's 255", len(batch.Token))
	}
	buf := make([]byte, 0, 18+len(batch.Token)+17*len(batch.Reports))
	buf = append(buf, binaryMagic...)
	buf = append(buf, binaryVersion)
	buf = le64(buf, uint64(batch.Round))
	buf = append(buf, byte(len(batch.Token)))
	buf = append(buf, batch.Token...)
	buf = le32(buf, uint32(len(batch.Reports)))
	for _, wr := range batch.Reports {
		if wr.User < 0 || int64(wr.User) > math.MaxUint32 {
			return nil, fmt.Errorf("serve: user id %d outside the binary framing's uint32 range", wr.User)
		}
		buf = le32(buf, uint32(wr.User))
		switch wr.Kind {
		case "value":
			buf = append(buf, bwValue)
			buf = le32(buf, uint32(int32(wr.Value)))
		case "unary":
			buf = append(buf, bwUnary)
			buf = le32(buf, uint32(len(wr.Bits)))
			buf = append(buf, wr.Bits...)
		case "packed":
			if len(wr.Packed)%8 != 0 {
				return nil, fmt.Errorf("serve: packed payload of %d bytes is not a whole number of words", len(wr.Packed))
			}
			buf = append(buf, bwPacked)
			buf = le32(buf, uint32(len(wr.Packed)/8))
			buf = append(buf, wr.Packed...)
		case "hash":
			buf = append(buf, bwHash)
			buf = le32(buf, uint32(int32(wr.Value)))
			buf = le64(buf, wr.Seed)
		case "cohort":
			buf = append(buf, bwCohort)
			buf = le32(buf, uint32(int32(wr.Value)))
			buf = le64(buf, wr.Seed)
		case "numeric":
			buf = append(buf, bwNumeric)
			buf = le64(buf, math.Float64bits(wr.Num))
		default:
			return nil, fmt.Errorf("serve: cannot binary-encode report kind %q", wr.Kind)
		}
	}
	return buf, nil
}

// ingestScratch is the memory one report request decodes into, pooled so
// that decoding and folding a binary batch allocates nothing once the pool
// is warm: the request body, the batch parsed out of it (payloads aliasing
// the body), and the packed words of the report being folded.
type ingestScratch struct {
	frame   []byte
	reports []history.Report
	words   []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// decodeBinary reads one binary batch into s. The whole framing is
// validated before anything is returned — every report parses, and no
// trailing bytes follow the last one — so a structurally broken batch folds
// nothing, exactly like a JSON batch that fails to decode; the count cap
// lands before that walk, so a lying count cannot buy O(count) validation
// work. The batch aliases s and is valid until s returns to its pool. A
// header that parsed is returned even when the reports did not, for the
// refusal's journal record.
func decodeBinary(body io.Reader, maxBatch int, s *ingestScratch) (wireBatch, error) {
	data, err := readFrame(body, s.frame)
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

// readFrame reads r to EOF into buf's capacity, growing it at most a few
// times; the caller keeps the grown buffer for the next request.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
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
