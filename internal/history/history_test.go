package history

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// TestLogRoundTrip proves Append/ReadAll is a faithful transcript:
// every field written comes back, including report payloads and frames.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.jsonl")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindConfig, Source: "gateway", N: 4, D: 3, Oracle: "GRR", W: 2, Budget: 1},
		{Kind: KindRound, Round: 1, Token: "tok-1", T: 1, Eps: 0.5, Users: []int{0, 2}},
		{Kind: KindBatch, Round: 1, Token: "tok-1", Verdict: VerdictAccepted, Status: 200,
			Folded: 2, Bytes: 77, Reports: []Report{
				{User: 0, Kind: "value", Value: 2},
				{User: 2, Kind: "packed", Packed: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
			}},
		{Kind: KindFrame, Round: 1, Token: "tok-1", Verdict: VerdictAccepted, Status: 200,
			Replica: "rep-a", Lo: 0, Hi: 2, Frame: &Frame{Shape: "counts", N: 2, Counts: []int64{1, 0, 1}}},
		{Kind: KindClose, Round: 1, T: 1, OK: true,
			Counters: &Frame{Shape: "counts", N: 2, Counts: []int64{0, 1, 1}}},
		{Kind: KindRelease, T: 1, Values: []float64{0.25, 0.5, 0.25}},
	}
	for _, rec := range recs {
		l.Append(rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(recs))
	}
	if got[2].Reports[1].Kind != "packed" || len(got[2].Reports[1].Packed) != 8 {
		t.Errorf("packed report payload did not round-trip: %+v", got[2].Reports[1])
	}
	if !got[4].Counters.Equal(fo.CounterFrame{Shape: fo.FrameCounts, N: 2, Counts: []int64{0, 1, 1}}) {
		t.Errorf("close counters did not round-trip: %+v", got[4].Counters)
	}
	if got[5].Values[1] != 0.5 {
		t.Errorf("release values did not round-trip: %+v", got[5].Values)
	}
}

// TestReadAllTornTail proves the runlog crash discipline: a torn final
// line (no newline, or a truncated fragment) is dropped silently.
func TestReadAllTornTail(t *testing.T) {
	for name, tail := range map[string]string{
		"no-newline":    `{"kind":"round","round":2`,
		"torn-fragment": `{"kind":"rou` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.jsonl")
			body := `{"kind":"config","source":"gateway","n":1,"d":2,"oracle":"GRR"}` + "\n" +
				`{"kind":"round","round":1,"token":"a","t":1,"eps":1,"all":true}` + "\n" + tail
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadAll(path)
			if err != nil {
				t.Fatalf("a torn tail must be tolerated, got %v", err)
			}
			if len(recs) != 2 {
				t.Fatalf("read %d records, want 2 (torn tail dropped)", len(recs))
			}
		})
	}
}

// TestReadAllMidFileCorruption proves tampering detection: a damaged
// line that is not the final append cannot occur under append-only
// writes and must be reported, not skipped.
func TestReadAllMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.jsonl")
	body := `{"kind":"config","source":"gateway","n":1,"d":2,"oracle":"GRR"}` + "\n" +
		`{"kinX":"round"}` + "\n" +
		`{"kind":"round","round":1,"token":"a","t":1,"eps":1,"all":true}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(path); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("mid-file corruption must error, got %v", err)
	}
}

// TestNilLogIsSafe proves instrumented code paths need no guards.
func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Append(Record{Kind: KindRound})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPackedDecodeFold measures a canonical packed report's last hop
// at d=65536: Report.Decode copies the 8 KiB little-endian payload into
// word scratch — the payload's second copy on the server, after the body
// read — and the unary aggregator folds the words.
func BenchmarkPackedDecodeFold(b *testing.B) {
	const d, eps, n = 65536, 1.0, 256
	o := fo.NewOUEPacked(d)
	src := ldprand.New(1)
	reports := make([]Report, n)
	for u := range reports {
		words := o.Perturb(u%d, eps, src).Packed
		reports[u] = Report{User: u, Kind: "packed", Value: -1, Packed: make([]byte, 8*len(words))}
		for i, w := range words {
			binary.LittleEndian.PutUint64(reports[u].Packed[8*i:], w)
		}
	}
	agg, err := o.NewAggregator(eps)
	if err != nil {
		b.Fatal(err)
	}
	var words []uint64
	b.SetBytes(d / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reports[i%n].Decode(&words)
		if err != nil {
			b.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			b.Fatal(err)
		}
	}
}
