package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
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
	b, err := decodeBinary(bytes.NewReader(body), int64(len(body)), DefaultMaxBatch, s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// packedLE is a packed payload spelled as 64-bit words: their little-endian
// bytes, as fo.Report.Packed holds them.
func packedLE(words ...uint64) []byte {
	b := make([]byte, 0, 8*len(words))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// binaryFrame puts a canonical batch on the binary wire, for tests that
// build or doctor canonical batches: every report decodes back to the
// fo.Report it stands for and goes through the one typed encoder.
func binaryFrame(tb testing.TB, b reportBatch) []byte {
	tb.Helper()
	k := chunk{round: b.Round, token: b.Token}
	for _, r := range b.Reports {
		fr, err := r.Decode(false)
		if err != nil {
			tb.Fatal(err)
		}
		k.users = append(k.users, r.User)
		k.reports = append(k.reports, fr)
	}
	frame, err := k.encodeBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// TestBinaryRoundTripAllKinds mirrors TestWireRoundTripAllKinds for the
// binary framing: every registered kind must survive encode, structural
// validation, and decode bit-identically, including the Value=-1 and
// Seed=0 conventions the JSON wire pins — and decode to the very
// canonical reports the JSON wire carries.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	reports := []fo.Report{
		{Kind: fo.KindValue, Value: 3},
		{Kind: fo.KindPacked, Value: -1, Packed: packedLE(0xdeadbeef, 0x1)},
		{Kind: fo.KindHash, Value: 2, Seed: 0x9e3779b97f4a7c15},
		{Kind: fo.KindHash, Value: 1, Seed: 0},
		{Kind: fo.KindCohort, Value: 1, Seed: 17},
		{Kind: fo.KindCohort, Value: 0, Seed: 0},
		numericReport(-0.25),
	}
	k := chunk{round: 7, token: "tok-0123456789abcdef", reports: reports}
	for i := range reports {
		k.users = append(k.users, 100+i)
	}
	batch := k.canonical()
	body, err := k.encodeBinary(nil)
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
		got, err := b.reports[i].Decode(false)
		if err != nil {
			t.Fatalf("%s: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip changed the report: got %+v, want %+v", want.Kind, got, want)
		}
	}
}

// TestBinaryNumericRoundTrip: the binary wire carries a numeric report's
// eight bytes as they are — -0, a subnormal and a NaN payload included, so
// a hostile value reaches the aggregator's bound check unaltered.
func TestBinaryNumericRoundTrip(t *testing.T) {
	reports := []fo.Report{numericReport(-0.25), numericReport(math.Copysign(0, -1)),
		numericReport(5e-324), {Kind: fo.KindNumeric, Seed: 0x7ff8dead0000beef}}
	body, err := chunk{round: 1, token: "t", users: []int{7, 8, 9, 10}, reports: reports}.encodeBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	b := decodeBinaryBody(t, body, new(ingestScratch))
	for i, want := range reports {
		got, err := b.reports[i].Decode(false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("numeric round trip got %+v, want %+v", got, want)
		}
	}
}

// TestBinaryScratchDecode pins the zero-copy contract: an aliasing decode
// hands the aggregator the packed payload where it lies in the request's
// frame, byte for byte what the owning decode copies out.
func TestBinaryScratchDecode(t *testing.T) {
	r := fo.Report{Kind: fo.KindPacked, Value: -1, Packed: packedLE(1, 0xffffffffffffffff, 42)}
	body, err := chunk{round: 1, token: "t", users: []int{0}, reports: []fo.Report{r}}.encodeBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var s ingestScratch
	b := decodeBinaryBody(t, body, &s)
	c, err := b.reports[0].Decode(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Packed, r.Packed) {
		t.Fatalf("aliasing decode got %x, want %x", c.Packed, r.Packed)
	}
	frame := s.frame[:cap(s.frame)]
	if &c.Packed[0] != &frame[len(body)-len(r.Packed)] {
		t.Fatal("aliasing decode did not hand out the frame's own bytes")
	}
	own, err := b.reports[0].Decode(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own.Packed, r.Packed) || &own.Packed[0] == &c.Packed[0] {
		t.Fatal("owning decode must copy the payload out of the frame")
	}
}

// TestBinaryEncodeRefusals pins the encoder's own validation: oversized
// tokens, out-of-range users, unknown kinds and packed payloads ending
// inside a word (the frame counts words) must fail at encode time, never
// produce a malformed frame.
func TestBinaryEncodeRefusals(t *testing.T) {
	value := []fo.Report{{Kind: fo.KindValue}}
	for _, tc := range []struct {
		name string
		k    chunk
	}{
		{"oversized token", chunk{token: string(make([]byte, 256))}},
		{"negative user", chunk{users: []int{-1}, reports: value}},
		{"user past uint32", chunk{users: []int{1 << 32}, reports: value}},
		{"unknown kind", chunk{users: []int{0}, reports: []fo.Report{{Kind: fo.Kind(99)}}}},
		{"ragged packed payload", chunk{users: []int{0}, reports: []fo.Report{{Kind: fo.KindPacked, Packed: make([]byte, 12)}}}},
	} {
		if _, err := tc.k.encodeBinary(nil); err == nil {
			t.Errorf("%s: encodeBinary accepted it", tc.name)
		}
	}
}

// TestBinaryRetiredUnaryTag: tag 1, the retired byte-per-element unary
// report, decodes as an unknown kind even in a frame its old encoder
// would have written (a length field, then that many bytes).
func TestBinaryRetiredUnaryTag(t *testing.T) {
	body, err := chunk{round: 1, token: "t", users: []int{5}, reports: []fo.Report{{Kind: fo.KindValue}}}.encodeBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-5] = 1 // the tag; the zero value that follows reads as a zero length
	_, err = decodeBinary(bytes.NewReader(body), int64(len(body)), DefaultMaxBatch, new(ingestScratch))
	if err == nil || !strings.Contains(err.Error(), "unknown binary report kind 1") {
		t.Fatalf("a tag-1 report decoded: %v", err)
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
		return fo.Report{Kind: fo.KindPacked, Value: -1, Packed: packedLE(words...)}
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
		agg, err := fo.NewOUE(d).NewAggregator(1)
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

// goldenChunk is a fixed chunk covering every report kind,
// with random users, values, seeds and payload lengths (empty ones
// included), derived from a seed.
func goldenChunk() chunk {
	k := chunk{round: 0x0102030405060708, token: "tok-0123456789abcdef"}
	src := ldprand.New(16)
	for i := 0; i < 48; i++ {
		k.users = append(k.users, int(src.Uint64()>>32))
		var r fo.Report
		switch i % 6 {
		case 0:
			r = fo.Report{Kind: fo.KindValue, Value: int(int32(src.Uint64()))}
		case 1: // a short vector, packed
			bits := make([]byte, src.Intn(40))
			for j := range bits {
				bits[j] = byte(src.Uint64() & 1)
			}
			r = fo.Report{Kind: fo.KindPacked, Value: -1, Packed: fo.PackBits(bits)}
		case 2:
			words := make([]uint64, src.Intn(9))
			for j := range words {
				words[j] = src.Uint64()
			}
			r = fo.Report{Kind: fo.KindPacked, Value: -1, Packed: packedLE(words...)}
		case 3:
			r = fo.Report{Kind: fo.KindHash, Value: int(int32(src.Uint64())), Seed: src.Uint64()}
		case 4:
			r = fo.Report{Kind: fo.KindCohort, Value: src.Intn(3), Seed: uint64(src.Intn(128))}
		case 5:
			r = numericReport(src.Float64()*2 - 1)
		}
		k.reports = append(k.reports, r)
	}
	return k
}

// TestBinaryFrameGolden pins the frame bytes across the encoder's
// rewrites: the digest is that of the encoder at commit 76520aa, the last
// with a unary tag, run on goldenChunk's reports — an encoder that in turn
// wrote what the canonical-batch encoder it replaced (encodeBinary(
// reportBatch) at commit 3ae73b8) did. So neither the typed encoder nor
// the unary tag's retirement changes a byte of the wire.
func TestBinaryFrameGolden(t *testing.T) {
	const wantLen, wantSum = 910, "456265c8a5a2e4237a6dc197da6f8f68093ad42743a2e9c9050bc69c647b585f"
	frame, err := goldenChunk().encodeBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(frame)); len(frame) != wantLen || got != wantSum {
		t.Fatalf("frame of %d bytes, sha256 %s; the replaced encoder wrote %d bytes, sha256 %s", len(frame), got, wantLen, wantSum)
	}
}

// TestBinaryEncodeDecodeProperty drives the typed encoder against the
// decoder over random chunks of every fo.Kind: the frame is
// exactly as long as the format says, and decodes — field for field — to
// the canonical reports the JSON wire would have carried.
func TestBinaryEncodeDecodeProperty(t *testing.T) {
	src := ldprand.New(2026)
	kinds := []fo.Kind{fo.KindValue, fo.KindPacked, fo.KindHash, fo.KindCohort}
	var frame []byte
	var scratch ingestScratch
	for trial := 0; trial < 300; trial++ {
		k := chunk{round: int64(src.Uint64()), token: string(make([]byte, src.Intn(256)))}
		size := 4 + 1 + 8 + 1 + len(k.token) + 4
		for n := src.Intn(24); n > 0; n-- {
			k.users = append(k.users, int(src.Uint64()>>32))
			size += 4 + 1
			i := src.Intn(len(kinds) + 1)
			if i == len(kinds) {
				k.reports = append(k.reports, numericReport(src.Normal()))
				size += 8
				continue
			}
			r := fo.Report{Kind: kinds[i], Value: int(int32(src.Uint64())), Seed: src.Uint64()}
			switch r.Kind {
			case fo.KindValue:
				r.Seed = 0
				size += 4
			case fo.KindPacked:
				r.Value, r.Seed = -1, 0
				words := make([]uint64, src.Intn(5))
				for j := range words {
					words[j] = src.Uint64()
				}
				if n := len(words); n > 0 {
					words[n-1] >>= uint(src.Intn(64)) // a partial tail word
				}
				r.Packed = packedLE(words...)
				size += 4 + len(r.Packed)
			case fo.KindHash, fo.KindCohort:
				size += 4 + 8
			default:
				t.Fatalf("the property test does not know kind %s", r.Kind)
			}
			k.reports = append(k.reports, r)
		}
		var err error
		if frame, err = k.encodeBinary(frame); err != nil {
			t.Fatal(err)
		}
		if len(frame) != size {
			t.Fatalf("trial %d: frame of %d bytes, the format says %d", trial, len(frame), size)
		}
		b := decodeBinaryBody(t, frame, &scratch)
		want := k.canonical()
		if b.round != want.Round || string(b.token) != want.Token || len(b.reports) != len(want.Reports) {
			t.Fatalf("trial %d: header decoded to round=%d token=%q count=%d", trial, b.round, b.token, len(b.reports))
		}
		for i, got := range b.reports {
			w := want.Reports[i]
			if got.User != w.User || got.Kind != w.Kind || got.Value != w.Value || got.Seed != w.Seed ||
				math.Float64bits(got.Num) != math.Float64bits(w.Num) ||
				!bytes.Equal(got.Packed, w.Packed) {
				t.Fatalf("trial %d report %d: decoded %+v, the canonical report is %+v", trial, i, got, w)
			}
		}
	}
}

// TestBinaryEncodeAllocs pins the client half of the zero-allocation
// claim: perturbing a 512 × 8 KiB chunk into the client's reused
// contribution buffer and encoding it into a reused frame allocates
// nothing once both are warm.
func TestBinaryEncodeAllocs(t *testing.T) {
	const n, words = 512, 1024
	pool := make([]fo.Report, n)
	for u := range pool {
		pool[u] = fo.Report{Kind: fo.KindPacked, Value: -1, Packed: make([]byte, 8*words)}
	}
	cl, err := NewClient("http://127.0.0.1:0", 0, n, Funcs{Report: func(id, _ int, _ float64) fo.Report { return pool[id] }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ri := &RoundInfo{Round: 1, T: 1, Eps: 1, Token: "0123456789abcdef0123456789abcdef"}
	users := Hosted(ri.Users, cl.first, cl.first+cl.count)
	var frame []byte
	run := func() {
		if frame, err = cl.perturb(ri, users).encodeBinary(frame); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the contribution buffer and the frame
	if len(frame) < n*words*8 {
		t.Fatalf("frame of %d bytes does not hold the chunk", len(frame))
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state binary encode allocates %v times per chunk, want 0", allocs)
	}
}

// bufferCounter counts the distinct buffers ReadFrame reads into: each
// one ends at its own address.
type bufferCounter struct {
	bytes.Reader
	last    *byte
	buffers int
}

func (c *bufferCounter) Read(p []byte) (int, error) {
	if end := &p[len(p)-1]; end != c.last {
		c.last = end
		c.buffers++
	}
	return c.Reader.Read(p)
}

// TestReadFrameSizing pins ReadFrame's memory rule: capacity follows the
// bytes received, never the length declared.
func TestReadFrameSizing(t *testing.T) {
	// Declared 64 MiB, sent 1 KiB, stalled into the read deadline: the lie
	// buys the 64 KiB floor.
	drip := io.MultiReader(bytes.NewReader(make([]byte, 1<<10)), iotest.ErrReader(errors.New("read deadline exceeded")))
	buf, err := ReadFrame(drip, nil, 64<<20)
	if err == nil || len(buf) != 1<<10 {
		t.Fatalf("dripped read returned %d bytes, err %v", len(buf), err)
	}
	if cap(buf) > 64<<10+1 {
		t.Fatalf("a body that declared 64 MiB and sent 1 KiB holds %d bytes of scratch, want at most 64 KiB + 1", cap(buf))
	}

	// An honest 4 MiB frame into cold scratch: seven buffers, the last one
	// exactly the declared length plus the EOF byte; warm, that one again.
	frame := make([]byte, 4<<20)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	body := bufferCounter{}
	body.Reset(frame)
	if buf, err = ReadFrame(&body, nil, int64(len(frame))); err != nil {
		t.Fatal(err)
	}
	if body.buffers > 7 || !bytes.Equal(buf, frame) || cap(buf) != len(frame)+1 {
		t.Fatalf("cold 4 MiB read: %d buffers, %d bytes into capacity %d; want at most 7 and a last one of the declared length + 1", body.buffers, len(buf), cap(buf))
	}
	body = bufferCounter{last: body.last}
	body.Reset(frame)
	if buf, err = ReadFrame(&body, buf, int64(len(frame))); err != nil || body.buffers != 0 || !bytes.Equal(buf, frame) {
		t.Fatalf("warm 4 MiB read went through %d new buffers, err %v; want none", body.buffers, err)
	}

	// No declared length (chunked): the limit is MaxBody, and capacity
	// still only doubles behind the bytes read.
	body.Reset(frame[:100<<10])
	if buf, err = ReadFrame(&body, nil, DefaultMaxBody); err != nil || len(buf) != 100<<10 || cap(buf) > 2*len(buf)+1 {
		t.Fatalf("undeclared 100 KiB read: %d bytes into capacity %d, err %v", len(buf), cap(buf), err)
	}
}
