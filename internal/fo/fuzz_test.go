package fo

import (
	"bytes"
	"testing"
)

// FuzzPackedReportParsing drives the packed report path with arbitrary
// wire bytes, exactly as an HTTP body would deliver them, folded straight
// into a packed-unary aggregator. The aggregator must never panic —
// undersized and ragged payloads, stray bits beyond the domain, and
// garbage are all errors — and any payload it accepts must round-trip
// bit-exactly through UnpackBits/PackBits.
func FuzzPackedReportParsing(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, uint16(8))
	f.Add([]byte{0xff, 0xff, 0, 0, 0, 0, 0, 0}, uint16(16))
	f.Add(bytes.Repeat([]byte{0xaa}, 16), uint16(100))
	f.Add([]byte{}, uint16(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(63))
	f.Fuzz(func(t *testing.T, data []byte, d16 uint16) {
		d := int(d16)
		if d < 2 || d > 1<<12 {
			t.Skip() // oracle constructors require 2 <= d; cap keeps folds fast
		}
		agg, err := NewOUEPacked(d).NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(Report{Kind: KindPacked, Value: -1, Packed: data}); err != nil {
			return // refused payloads are fine; panics are not
		}
		// Accepted payloads are well-formed: the unpack/pack round-trip
		// must be the identity.
		if repacked := PackBits(UnpackBits(data, d)); !bytes.Equal(repacked, data) {
			t.Fatalf("round-trip changed the payload: %x != %x", repacked, data)
		}
	})
}

// fuzzFrameLimit is the counter cap FuzzCounterFrameWire decodes under —
// small, so the committed "len above the cap" seeds stay a few bytes.
const fuzzFrameLimit = 1 << 10

// FuzzCounterFrameWire decodes arbitrary bytes as a CounterFrame's wire
// encoding — the payload of a cluster counter shipment — then validates
// and merges it. A hostile replica must never be able to panic the
// coordinator or make it allocate for counters it only declared: decode
// failures, validation failures and shape mismatches are all errors, a
// frame within the cap lands in the storage it was given and one above
// it is refused first. The encoding is canonical, so whatever decodes
// re-encodes to the very bytes it came from.
func FuzzCounterFrameWire(f *testing.F) {
	seed := func(fr CounterFrame) []byte {
		buf, err := fr.AppendWire(nil)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add(seed(CounterFrame{Shape: FrameCounts, N: 3, Counts: []int64{1, 0, 2, 0}}))
	f.Add(seed(CounterFrame{Shape: FrameCohort, N: 2, K: 2, G: 2, Counts: []int64{1, 0, 0, 1}}))
	f.Add(seed(CounterFrame{Shape: FrameShape(9), N: -1, Counts: []int64{}}))
	f.Add([]byte("not a counter frame, but longer than one's header"))
	f.Fuzz(func(t *testing.T, data []byte) {
		storage := make([]int64, fuzzFrameLimit)
		fr := CounterFrame{Counts: storage[:0]}
		err := fr.DecodeWire(data, fuzzFrameLimit)
		if cap(fr.Counts) != fuzzFrameLimit || &fr.Counts[:1][0] != &storage[0] {
			t.Fatalf("decoding %d bytes left the %d-counter storage it was given (err: %v)", len(data), fuzzFrameLimit, err)
		}
		if err != nil {
			return
		}
		again, err := fr.AppendWire(nil)
		if err != nil {
			t.Fatalf("accepted frame cannot re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, again)
		}
		if fr.WireSize() != len(data) {
			t.Fatalf("WireSize %d for a %d-byte encoding", fr.WireSize(), len(data))
		}
		if err := fr.Validate(); err != nil {
			return
		}
		// A structurally valid frame still has to match the receiving
		// aggregator; mismatches must error, not corrupt or panic.
		agg, err := NewGRR(4).NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := MergeCounters(agg, fr); err != nil {
			return
		}
		if _, err := ExportCounters(agg); err != nil {
			t.Fatalf("merged frame cannot re-export: %v", err)
		}
	})
}

// FuzzOLHCEstimate drives the digit-packed OLH-C kernel with arbitrary
// cohort matrices and shapes: whatever (g, k, d) the fuzzer picks, the
// support counts behind Estimate must equal the olhHash definition
// (naiveSupport) element for element.
func FuzzOLHCEstimate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(3), uint8(128), uint16(2049))
	f.Add([]byte{0xff, 0x80, 0x7f}, uint16(2), uint8(9), uint16(1))
	f.Add([]byte{9}, uint16(17), uint8(5), uint16(300))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a}, 40), uint16(256), uint8(3), uint16(64))
	f.Fuzz(func(t *testing.T, data []byte, g16 uint16, k8 uint8, d16 uint16) {
		g, k, d := 2+int(g16)%600, 1+int(k8), 1+int(d16)%(3*sweepBlock)
		if len(data) == 0 {
			t.Skip()
		}
		// Cell i is a signed 40-bit value read from the data cyclically,
		// so sums over k <= 256 cohorts stay exact in a float64.
		matrix := make([]int64, k*g)
		for i := range matrix {
			var x uint64
			for j := 0; j < 5; j++ {
				x = x<<8 | uint64(data[(5*i+j)%len(data)])
			}
			matrix[i] = int64(x<<24) >> 24
		}
		checkPackedMatchesNaive(t, matrix, k, g, d)
	})
}
