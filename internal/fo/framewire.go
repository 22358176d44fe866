package fo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// A CounterFrame has exactly one wire encoding, all integers little-endian:
//
//	offset  size  field
//	0       1     shape    FrameShape (1 counts, 2 cohort)
//	1       8     n        reports folded into the counters (int64)
//	9       4     k        cohort rows (uint32; 0 in a counts frame)
//	13      4     g        cohort buckets (uint32; 0 in a counts frame)
//	17      4     len      number of counters (uint32)
//	21      4     entries  number of non-zero counters (uint32)
//	25      …     entries × (uvarint gap, varint value)
//
// Only non-zero counters travel: gap is the number of zero counters
// skipped since the previous entry (since index 0 for the first), value
// the counter, zigzag-encoded like encoding/binary's signed varints. A
// sparse GRR round and a dense OUE one are the same bytes-per-entry code
// path. The encoding is canonical — every varint minimal, no zero value,
// every index below len, nothing after the last entry — so equal frames
// are equal bytes, and DecodeWire refuses everything else.
const frameWireHeader = 25

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a counter to the unsigned value its varint carries.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// WireSize returns the size in bytes of the frame's wire encoding
// (AppendWire), computed without building it: what a shipment of this
// frame costs on the wire, for communication accounting and the cluster's
// frame-bytes counter.
func (f CounterFrame) WireSize() int {
	size, gap := frameWireHeader, uint64(0)
	for _, v := range f.Counts {
		if v == 0 {
			gap++
			continue
		}
		size += uvarintLen(gap) + uvarintLen(zigzag(v))
		gap = 0
	}
	return size
}

// AppendWire appends the frame's wire encoding to buf and returns the
// extended buffer. It fails only for a frame the header cannot carry
// (dimensions or length outside uint32), which no aggregator exports.
func (f CounterFrame) AppendWire(buf []byte) ([]byte, error) {
	for _, v := range [...]int{f.K, f.G, len(f.Counts)} {
		if v < 0 || v > math.MaxUint32 {
			return buf, fmt.Errorf("fo: counter frame dimension %d does not fit the wire header", v)
		}
	}
	buf = append(buf, byte(f.Shape))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.N))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.K))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.G))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Counts)))
	at := len(buf) // the entry count lands here once the counters are walked
	buf = append(buf, 0, 0, 0, 0)
	entries, gap := uint32(0), uint64(0)
	for _, v := range f.Counts {
		if v == 0 {
			gap++
			continue
		}
		buf = binary.AppendUvarint(buf, gap)
		buf = binary.AppendUvarint(buf, zigzag(v))
		entries++
		gap = 0
	}
	binary.LittleEndian.PutUint32(buf[at:], entries)
	return buf, nil
}

// minimalUvarint reads one uvarint off data, refusing a truncated,
// overlong or non-minimal one (binary.Uvarint accepts padding zeros,
// which would give one value two encodings).
func minimalUvarint(data []byte) (uint64, int, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errors.New("truncated or overlong varint")
	}
	if n > 1 && data[n-1] == 0 {
		return 0, 0, errors.New("non-minimal varint")
	}
	return x, n, nil
}

// DecodeWire replaces f with the frame encoded in data, which must be
// exactly one canonical encoding. It checks structure only — Validate
// judges the shape, the dimensions and the signs — and refuses a frame
// declaring more than maxCounters counters before allocating anything for
// it. f.Counts' storage is reused when it is large enough, so a pooled
// destination decodes without allocating; after an error f holds garbage.
func (f *CounterFrame) DecodeWire(data []byte, maxCounters int) error {
	if len(data) < frameWireHeader {
		return fmt.Errorf("fo: counter frame of %d bytes is shorter than its %d-byte header", len(data), frameWireHeader)
	}
	n := int(binary.LittleEndian.Uint32(data[17:]))
	entries := binary.LittleEndian.Uint32(data[21:])
	if n > maxCounters {
		return fmt.Errorf("fo: counter frame declares %d counters, limit %d", n, maxCounters)
	}
	counts := f.Counts[:0]
	if cap(counts) < n {
		counts = make([]int64, n)
	} else {
		counts = counts[:n]
		clear(counts)
	}
	*f = CounterFrame{
		Shape:  FrameShape(data[0]),
		N:      int(int64(binary.LittleEndian.Uint64(data[1:]))),
		K:      int(binary.LittleEndian.Uint32(data[9:])),
		G:      int(binary.LittleEndian.Uint32(data[13:])),
		Counts: counts,
	}
	data = data[frameWireHeader:]
	next := uint64(0) // the lowest index the next entry may name
	for e := uint32(0); e < entries; e++ {
		gap, used, err := minimalUvarint(data)
		if err != nil {
			return fmt.Errorf("fo: counter frame entry %d gap: %v", e, err)
		}
		data = data[used:]
		zz, used, err := minimalUvarint(data)
		if err != nil {
			return fmt.Errorf("fo: counter frame entry %d value: %v", e, err)
		}
		data = data[used:]
		if zz == 0 {
			return fmt.Errorf("fo: counter frame entry %d carries a zero counter", e)
		}
		// gap may be anything up to MaxUint64, so compare before adding.
		if gap >= uint64(n)-next {
			return fmt.Errorf("fo: counter frame entry %d lies past its %d counters", e, n)
		}
		next += gap
		counts[next] = int64(zz>>1) ^ -int64(zz&1)
		next++
	}
	if len(data) != 0 {
		return fmt.Errorf("fo: counter frame has %d bytes after its last entry", len(data))
	}
	return nil
}
