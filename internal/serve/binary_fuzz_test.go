package serve

import (
	"bytes"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// FuzzBinaryBatchDecode drives the binary batch decoder with arbitrary
// bytes: header parsing, the structural walk, and contribution decoding
// must refuse malformed framing — truncated
// frames, oversized length fields, word-count mismatches — with errors,
// never panics or out-of-bounds reads, and anything that validates must
// fold into an aggregator without panicking.
func FuzzBinaryBatchDecode(f *testing.F) {
	seed := func(batch reportBatch) []byte { return binaryFrame(f, batch) }
	honest := seed(reportBatch{Round: 1, Token: "tok", Reports: []history.Report{
		{User: 0, Kind: "value", Value: 3},
		{User: 1, Kind: "hash", Value: 2, Seed: 77},
		{User: 2, Kind: "cohort", Value: 1, Seed: 3},
		{User: 3, Kind: "numeric", Num: -0.25},
	}})
	f.Add(honest)
	packed := seed(reportBatch{Round: 2, Token: "tok", Reports: []history.Report{
		{User: 0, Kind: "packed", Value: -1, Packed: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{User: 1, Kind: "unary", Value: -1, Bits: []byte{0, 1, 0, 0, 0, 0, 0, 1}},
	}})
	f.Add(packed)
	// Truncated mid-report.
	f.Add(packed[:len(packed)-3])
	// Truncated mid-header.
	f.Add(honest[:7])
	// Oversized word count: claims 2^30 words with one present.
	lie := seed(reportBatch{Round: 3, Token: "t", Reports: []history.Report{
		{User: 0, Kind: "packed", Value: -1, Packed: []byte{0, 0, 0, 0, 0, 0, 0, 1}},
	}})
	lie[len(lie)-12] = 0
	lie[len(lie)-10] = 0
	lie[len(lie)-9] = 0x40 // words = 1<<30, little-endian
	f.Add(lie)
	// Count field larger than the reports present.
	short := seed(reportBatch{Round: 4, Token: "t", Reports: []history.Report{
		{User: 0, Kind: "value", Value: 1},
	}})
	short[len(binaryMagic)+1+8+1+1] = 9 // count byte: 9 reports claimed, 1 present
	f.Add(short)
	f.Add([]byte("LDPB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch ingestScratch
		batch, err := decodeBinary(bytes.NewReader(data), int64(len(data)), DefaultMaxBatch, &scratch)
		if err != nil {
			return
		}
		agg, err := fo.NewOUEPacked(64).NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range batch.reports {
			if c, err := contribution(br, false, true); err == nil && !c.Numeric {
				_ = agg.Add(c.Report) // mismatched shapes error; panics fail the fuzz
			}
			if _, err := contribution(br, true, false); err == nil && br.Kind != "numeric" {
				t.Fatalf("%s report decoded in a numeric round", br.Kind)
			}
		}
	})
}
