package history

import (
	"bytes"
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

// TestReportDecodeOwnOrAlias pins Decode's one choice: payloads reach the
// fo.Report byte for byte, aliasing the canonical report's memory or owning
// a copy of it, and a packed payload ending inside a word is refused before
// any aggregator sees it.
func TestReportDecodeOwnOrAlias(t *testing.T) {
	payload := []byte{0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0x80}
	for _, tc := range []struct {
		r   Report
		got func(fo.Report) []byte
	}{
		{Report{Kind: "packed", Value: -1, Packed: bytes.Clone(payload)}, func(fr fo.Report) []byte { return fr.Packed }},
		{Report{Kind: "unary", Value: -1, Bits: bytes.Clone(payload)}, func(fr fo.Report) []byte { return fr.Bits }},
	} {
		aliased, err := tc.r.Decode(true)
		if err != nil {
			t.Fatal(err)
		}
		owned, err := tc.r.Decode(false)
		if err != nil {
			t.Fatal(err)
		}
		if aliased.Kind.String() != tc.r.Kind || !bytes.Equal(tc.got(aliased), payload) || !bytes.Equal(tc.got(owned), payload) {
			t.Fatalf("%s: decoded %+v and %+v from %+v", tc.r.Kind, aliased, owned, tc.r)
		}
		tc.got(aliased)[0] ^= 0xff // writes through to the canonical report, not to the copy
		if src := append(tc.r.Bits, tc.r.Packed...); src[0] == payload[0] || tc.got(owned)[0] != payload[0] {
			t.Fatalf("%s: the aliasing decode copied, or the owning one did not", tc.r.Kind)
		}
	}
	if _, err := (Report{Kind: "packed", Packed: make([]byte, 12)}).Decode(true); err == nil {
		t.Fatal("a packed payload of 12 bytes decoded")
	}
	if _, err := (Report{Kind: "numeric", Num: 1}).Decode(true); err == nil {
		t.Fatal("a numeric report decoded into a frequency report")
	}
}

// BenchmarkPackedDecodeFold measures a canonical packed report's last hop
// at d=65536: Report.Decode hands the 8 KiB little-endian payload through
// as it is, and the unary aggregator folds the bytes — one copy, into its
// batch buffer.
func BenchmarkPackedDecodeFold(b *testing.B) {
	const d, eps, n = 65536, 1.0, 256
	o := fo.NewOUEPacked(d)
	src := ldprand.New(1)
	reports := make([]Report, n)
	for u := range reports {
		reports[u] = Report{User: u, Kind: "packed", Value: -1, Packed: o.Perturb(u%d, eps, src).Packed}
	}
	agg, err := o.NewAggregator(eps)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(d / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := reports[i%n].Decode(true)
		if err != nil {
			b.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			b.Fatal(err)
		}
	}
}
