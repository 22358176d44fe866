package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
)

// decodeBinaryBody decodes an encoded binary batch the way the handler
// does, into fresh scratch.
func decodeBinaryBody(t *testing.T, body []byte, s *ingestScratch) wireBatch {
	t.Helper()
	b, err := decodeBinary(bytes.NewReader(body), DefaultMaxBatch, s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBinaryRoundTripAllKinds mirrors TestWireRoundTripAllKinds for the
// binary framing: every registered kind must survive encode, structural
// validation, and decode bit-identically, including the Value=-1 and
// Seed=0 conventions the JSON wire pins — and decode to the very
// canonical reports the JSON wire carries.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	reports := []fo.Report{
		{Kind: fo.KindValue, Value: 3},
		{Kind: fo.KindUnary, Value: -1, Bits: []byte{1, 0, 0, 1, 0, 1, 1, 0}},
		{Kind: fo.KindPacked, Value: -1, Packed: []uint64{0xdeadbeef, 0x1}},
		{Kind: fo.KindHash, Value: 2, Seed: 0x9e3779b97f4a7c15},
		{Kind: fo.KindHash, Value: 1, Seed: 0},
		{Kind: fo.KindCohort, Value: 1, Seed: 17},
		{Kind: fo.KindCohort, Value: 0, Seed: 0},
	}
	batch := reportBatch{Round: 7, Token: "tok-0123456789abcdef"}
	for i, r := range reports {
		batch.Reports = append(batch.Reports, encodeContribution(100+i, collect.Contribution{Report: r}))
	}
	body, err := encodeBinary(batch)
	if err != nil {
		t.Fatal(err)
	}
	b := decodeBinaryBody(t, body, new(ingestScratch))
	if b.round != batch.Round || string(b.token) != batch.Token {
		t.Fatalf("header round-trip got round=%d token=%q", b.round, b.token)
	}
	if !reflect.DeepEqual(b.reports, batch.Reports) {
		t.Fatalf("binary wire decoded %+v, the JSON wire carries %+v", b.reports, batch.Reports)
	}
	for i, want := range reports {
		c, err := contribution(b.reports[i], false, nil)
		if err != nil {
			t.Fatalf("%s: contribution: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(c.Report, want) {
			t.Fatalf("%s: round trip changed the report: got %+v, want %+v", want.Kind, c.Report, want)
		}
	}
}

// TestBinaryNumericRoundTrip covers the numeric payload and both
// round-kind mismatch rejections.
func TestBinaryNumericRoundTrip(t *testing.T) {
	body, err := encodeBinary(reportBatch{Round: 1, Token: "t", Reports: []history.Report{
		encodeContribution(7, collect.Contribution{Numeric: true, Value: -0.25}),
		encodeContribution(8, collect.Contribution{Report: fo.Report{Kind: fo.KindValue, Value: 1}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	b := decodeBinaryBody(t, body, new(ingestScratch))
	c, err := contribution(b.reports[0], true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Numeric || c.Value != -0.25 {
		t.Fatalf("numeric round trip got %+v", c)
	}
	if _, err := contribution(b.reports[0], false, nil); err == nil {
		t.Fatal("numeric report in a frequency round must be rejected")
	}
	if _, err := contribution(b.reports[1], true, nil); err == nil {
		t.Fatal("value report in a numeric round must be rejected")
	}
}

// TestBinaryScratchDecode pins the zero-copy contract: with a scratch
// buffer, packed payloads decode into it (grown once, reused), and the
// decoded words match the allocating path exactly.
func TestBinaryScratchDecode(t *testing.T) {
	r := fo.Report{Kind: fo.KindPacked, Value: -1, Packed: []uint64{1, 0xffffffffffffffff, 42}}
	body, err := encodeBinary(reportBatch{Round: 1, Token: "t", Reports: []history.Report{
		encodeContribution(0, collect.Contribution{Report: r}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var s ingestScratch
	b := decodeBinaryBody(t, body, &s)
	c, err := contribution(b.reports[0], false, &s.words)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Report.Packed, r.Packed) {
		t.Fatalf("scratch decode got %v, want %v", c.Report.Packed, r.Packed)
	}
	if &s.words[0] != &c.Report.Packed[0] {
		t.Fatal("scratch decode did not reuse the scratch buffer")
	}
}

// TestBinaryEncodeRefusals pins the encoder's own validation: oversized
// tokens, out-of-range users, ragged packed payloads, and unknown kinds
// must fail at encode time, never produce a malformed frame.
func TestBinaryEncodeRefusals(t *testing.T) {
	long := make([]byte, 256)
	for _, tc := range []struct {
		name  string
		batch reportBatch
	}{
		{"oversized token", reportBatch{Token: string(long)}},
		{"negative user", reportBatch{Reports: []history.Report{{User: -1, Kind: "value"}}}},
		{"ragged packed", reportBatch{Reports: []history.Report{{Kind: "packed", Value: -1, Packed: make([]byte, 7)}}}},
		{"unknown kind", reportBatch{Reports: []history.Report{{Kind: "holographic"}}}},
	} {
		if _, err := encodeBinary(tc.batch); err == nil {
			t.Errorf("%s: encodeBinary accepted it", tc.name)
		}
	}
}

// TestParseWire covers the -wire flag values.
func TestParseWire(t *testing.T) {
	for s, want := range map[string]Wire{"": WireJSON, "json": WireJSON, "binary": WireBinary} {
		got, err := ParseWire(s)
		if err != nil || got != want {
			t.Errorf("ParseWire(%q) = %q, %v", s, got, err)
		}
	}
	if _, err := ParseWire("gob"); err == nil {
		t.Error("ParseWire accepted an unknown wire")
	}
}

// TestFrameOverheadAcrossWires pins the per-report billing of both batch
// encodings (Backend implements collect.Framed, so communication totals
// stay comparable): the binary framing bills a small constant envelope,
// the JSON estimate grows with the payload (base64 expansion plus the
// per-report envelope), and binary is always the cheaper.
func TestFrameOverheadAcrossWires(t *testing.T) {
	jsonBackend, err := NewBackend(4)
	if err != nil {
		t.Fatal(err)
	}
	binBackend, err := NewBackend(4)
	if err != nil {
		t.Fatal(err)
	}
	binBackend.Wire = WireBinary
	var _ collect.Framed = jsonBackend

	// Payloads spanning the report shapes: a hash report's 8 bytes up to
	// a d=65536 packed payload's 8 KiB.
	for _, payload := range []int{8, 64, 8192} {
		jsonOv := jsonBackend.FrameOverhead(payload)
		bin := binBackend.FrameOverhead(payload)
		if bin != 9 {
			t.Errorf("binary overhead at %d B = %d, want the constant 9", payload, bin)
		}
		if jsonOv != payload/3+48 {
			t.Errorf("json overhead at %d B = %d, want %d", payload, jsonOv, payload/3+48)
		}
		if bin >= jsonOv {
			t.Errorf("overhead at %d B: binary %d, json %d — want binary < json", payload, bin, jsonOv)
		}
	}
}

// TestMediaType covers parameter stripping and case folding.
func TestMediaType(t *testing.T) {
	for ct, want := range map[string]string{
		"application/json":               "application/json",
		"application/json; charset=utf8": "application/json",
		" Application/X-LDPIDS-Batch ":   ContentTypeBinary,
		"":                               "",
		"text/plain;q=1":                 "text/plain",
	} {
		if got := mediaType(ct); got != want {
			t.Errorf("mediaType(%q) = %q, want %q", ct, got, want)
		}
	}
}

// TestBinaryWireFallback proves the 415 negotiation: a binary-wire client
// behind a server that does not speak the binary framing falls back to
// JSON on the same batch (nothing lost), stays on JSON afterwards, and
// every round still completes.
func TestBinaryWireFallback(t *testing.T) {
	const n, d = 4, 8
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 10 * time.Second
	var binaryPosts atomic.Int64
	// A front end that predates the binary framing: 415 on the binary
	// content type, everything else straight through.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/report" && mediaType(r.Header.Get("Content-Type")) == ContentTypeBinary {
			binaryPosts.Add(1)
			http.Error(w, "no binary here", http.StatusUnsupportedMediaType)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer ts.Close()

	fns := Funcs{Report: func(id, t int, eps float64) fo.Report {
		return fo.Report{Kind: fo.KindValue, Value: id % d}
	}}
	cl, err := NewClient(ts.URL, 0, n, fns)
	if err != nil {
		t.Fatal(err)
	}
	cl.Wire = WireBinary
	cl.PollWait = 2 * time.Second
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := cl.Serve(); err != nil {
			t.Errorf("client: %v", err)
		}
	}()

	oracle := fo.NewGRR(d)
	for round := 1; round <= 2; round++ {
		agg, err := oracle.NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(collect.Request{T: round, Eps: 1}, collect.AggregatorSink{Agg: agg}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	backend.Close()
	cl.Close()
	wg.Wait()
	// Exactly one binary attempt: the first post negotiated down, and the
	// client never advertised binary again.
	if got := binaryPosts.Load(); got != 1 {
		t.Fatalf("binary posts = %d, want exactly 1 (negotiate once, then stay on JSON)", got)
	}
	if !cl.jsonOnly {
		t.Fatal("client did not latch the JSON fallback")
	}
}

// TestBinaryWireMatchesJSON runs the same deterministic packed round over
// both wires and demands bit-identical aggregator counters and identical
// canonical journal batches — the end-to-end equivalence the CI smoke
// jobs check at release-log granularity.
func TestBinaryWireMatchesJSON(t *testing.T) {
	const n, d = 6, 192
	fns := Funcs{Report: func(id, t int, eps float64) fo.Report {
		src := ldprand.New(uint64(id)<<32 | uint64(t))
		words := make([]uint64, (d+63)/64)
		for i := range words {
			words[i] = src.Uint64()
		}
		words[len(words)-1] &= (1 << (d % 64)) - 1
		return fo.Report{Kind: fo.KindPacked, Value: -1, Packed: words}
	}}

	run := func(wire Wire) (fo.CounterFrame, []history.Record) {
		logPath := filepath.Join(t.TempDir(), "ingest.jsonl")
		hist, err := history.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		hist.Append(history.Record{Kind: history.KindConfig, Source: "gateway",
			N: n, D: d, Oracle: "OUE-packed", W: 4, Budget: 4})
		backend, err := NewBackend(n)
		if err != nil {
			t.Fatal(err)
		}
		backend.Timeout = 10 * time.Second
		backend.History = hist
		backend.Wire = wire
		ts := httptest.NewServer(backend)
		defer ts.Close()
		cl, err := NewClient(ts.URL, 0, n, fns)
		if err != nil {
			t.Fatal(err)
		}
		cl.Wire = wire
		cl.PollWait = 2 * time.Second
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Serve(); err != nil {
				t.Errorf("client: %v", err)
			}
		}()
		agg, err := fo.NewOUEPacked(d).NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(collect.Request{T: 1, Eps: 1}, collect.AggregatorSink{Agg: agg}); err != nil {
			t.Fatal(err)
		}
		backend.Close()
		cl.Close()
		wg.Wait()
		if err := hist.Close(); err != nil {
			t.Fatal(err)
		}
		frame, err := fo.ExportCounters(agg)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := history.ReadAll(logPath)
		if err != nil {
			t.Fatal(err)
		}
		if res := history.Check(recs); !res.OK() {
			t.Fatalf("%s-wire history fails the checker: %q", wire, res.Violations)
		}
		return frame, recs
	}

	jsonFrame, jsonRecs := run(WireJSON)
	binFrame, binRecs := run(WireBinary)
	if !reflect.DeepEqual(jsonFrame, binFrame) {
		t.Fatal("binary-wire counters differ from JSON-wire counters")
	}
	batches := func(recs []history.Record) [][]history.Report {
		var out [][]history.Report
		for _, rec := range recs {
			if rec.Kind == history.KindBatch && rec.Verdict == history.VerdictAccepted {
				out = append(out, rec.Reports)
			}
		}
		return out
	}
	if !reflect.DeepEqual(batches(jsonRecs), batches(binRecs)) {
		t.Fatal("journaled canonical batches differ across wires")
	}
}
