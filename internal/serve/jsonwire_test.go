package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// jsonVerdict classifies a batch decode: ok, malformed, or over the cap.
func jsonVerdict(err error) string {
	var tooLarge batchTooLargeError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &tooLarge):
		return "batch-too-large"
	default:
		return "malformed"
	}
}

// checkJSONDecode holds decodeJSON to json.Unmarshal into the reference
// batch by inclusion: every body decodeJSON accepts, encoding/json accepts
// too, to the same round, token and reports — nil-ness of every slice
// included — and both give it the same count-cap verdict. A body outside
// the canonical grammar is refused whatever encoding/json makes of it. s
// is reused across calls, so a decode that read anything a previous body
// left in the pooled scratch shows here.
func checkJSONDecode(t *testing.T, data []byte, maxBatch int, s *ingestScratch) {
	t.Helper()
	got, err := decodeJSON(bytes.NewReader(data), int64(len(data)), maxBatch, s)
	if jsonVerdict(err) == "malformed" {
		return
	}
	var ref reportBatch
	refErr := json.Unmarshal(data, &ref)
	if refErr != nil {
		t.Fatalf("body %q: decodeJSON accepts it, encoding/json says %v", data, refErr)
	}
	if len(ref.Reports) > maxBatch {
		refErr = batchTooLargeError{len(ref.Reports), maxBatch}
	}
	if jsonVerdict(err) != jsonVerdict(refErr) {
		t.Fatalf("body %q: decodeJSON says %v, encoding/json says %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	if got.round != ref.Round || string(got.token) != ref.Token || !reflect.DeepEqual(got.reports, ref.Reports) {
		t.Fatalf("body %q decoded to round=%d token=%q reports=%#v; encoding/json decodes round=%d token=%q reports=%#v",
			data, got.round, got.token, got.reports, ref.Round, ref.Token, ref.Reports)
	}
}

// tokenAlphabet holds every byte a round token may hold on the JSON wire:
// printable ASCII other than the quote and backslash, which would need
// escapes, and < > &, which encoding/json escapes.
var tokenAlphabet = func() (a []byte) {
	for c := byte(' '); c <= '~'; c++ {
		if !strings.ContainsRune(`"\<>&`, rune(c)) {
			a = append(a, c)
		}
	}
	return a
}()

// alphabetToken maps every byte of b into tokenAlphabet.
func alphabetToken(b []byte) string {
	t := make([]byte, len(b))
	for i, c := range b {
		t[i] = tokenAlphabet[int(c)%len(tokenAlphabet)]
	}
	return string(t)
}

// checkJSONEncode holds encodeJSON to json.Marshal of the reference
// batch — the same bytes, or both refusing — and to decodeJSON: what it
// writes decodes back to the reference batch. A token outside
// tokenAlphabet, or empty, has no canonical spelling and is refused.
func checkJSONEncode(t *testing.T, k chunk, frame []byte, s *ingestScratch) []byte {
	t.Helper()
	got, err := k.encodeJSON(frame)
	if k.token == "" || strings.Trim(k.token, string(tokenAlphabet)) != "" {
		if err == nil {
			t.Fatalf("encodeJSON wrote token %q, which has no canonical spelling", k.token)
		}
		return frame
	}
	ref := k.canonical()
	want, refErr := json.Marshal(ref)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("chunk %+v: encodeJSON error %v, json.Marshal error %v", k, err, refErr)
	}
	if err != nil {
		return frame
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeJSON wrote\n %s\njson.Marshal writes\n %s", got, want)
	}
	b, err := decodeJSON(bytes.NewReader(got), int64(len(got)), len(k.users), s)
	if err != nil || b.round != ref.Round || string(b.token) != ref.Token || !reflect.DeepEqual(b.reports, ref.Reports) {
		t.Fatalf("encodeJSON wrote\n %s\nwhich decodes to round=%d token=%q reports=%#v, %v", got, b.round, b.token, b.reports, err)
	}
	return got
}

// numEdges are float64 values at encoding/json's formatting boundaries.
var numEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-10,
	1e20, 1e21, 9.999999999999999e20, -1e21, 123456789012345680000, 1e300, math.MaxFloat64,
	5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.25, -0.25, 1.0 / 3,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// randomChunk draws a chunk of every registered oracle's reports from
// src, with the given token; Mean reports also carry numEdges' values.
func randomChunk(src *ldprand.Source, token string) chunk {
	k := chunk{round: int64(src.Uint64()), token: token}
	names := fo.Names()
	for n := src.Intn(12); n > 0; n-- {
		o, err := fo.New(names[src.Intn(len(names))], 2+src.Intn(150))
		if err != nil {
			panic(err)
		}
		r := o.Perturb(src.Intn(o.Domain()), 0.5+4*src.Float64(), src)
		if r.Kind == fo.KindNumeric && src.Intn(2) == 0 {
			r.Seed = math.Float64bits(numEdges[src.Intn(len(numEdges))])
		}
		if src.Intn(4) == 0 {
			r.Value = int(int64(src.Uint64())) // any int, sign and all
		}
		user := int(int64(src.Uint64()))
		if src.Intn(2) == 0 {
			user = src.Intn(1 << 20)
		}
		k.users = append(k.users, user)
		k.reports = append(k.reports, r)
	}
	return k
}

// FuzzReportBatchJSON is the codec's differential test against
// encoding/json. Decode, by inclusion: every body decodeJSON accepts,
// json.Unmarshal accepts into the reference batch, to deeply equal values
// and with the same count-cap verdict; the rest, outside the canonical
// grammar, are refused whatever encoding/json makes of them. Encode: a
// random chunk of every registered oracle's reports, derived from the
// input and carrying a prefix of it mapped into tokenAlphabet as its
// token, encodes to json.Marshal's exact bytes — NaN and ±Inf numeric
// reports refused by both, an empty token by encodeJSON — and decodes
// back to the chunk's reference batch.
func FuzzReportBatchJSON(f *testing.F) {
	seed := func(k chunk) []byte {
		body, err := json.Marshal(k.canonical())
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	src := ldprand.New(31)
	for i := 0; i < 4; i++ {
		k := randomChunk(src, "0123456789abcdef0123456789abcdef")
		for j, r := range k.reports {
			if x := math.Float64frombits(r.Seed); r.Kind == fo.KindNumeric && (math.IsNaN(x) || math.IsInf(x, 0)) {
				k.reports[j].Seed = 0
			}
		}
		f.Add(seed(k))
	}
	for _, body := range []string{
		// Outside the canonical grammar, down to the last three rows:
		// case-folded and duplicate keys, repeated arrays.
		`{"ROUND":3,"Token":"t","rEpOrTs":[{"USER":1,"KIND":"value","VALUE":2}]}`,
		`{"round":1,"round":2,"token":"a","token":"b","reports":[{"user":1,"user":2,"kind":"hash","seed":5,"seed":6}]}`,
		`{"round":1,"reports":[{"user":1,"kind":"value","value":4},{"user":2}],"reports":[{"user":3},null]}`,
		`{"reports":[{"bits":"AQID"}],"reports":[{"bits":[9,null,null,null]}]}`,
		`{"reports":[{"bits":"AQ=="}],"reports":[{"bits":[7,null,null]}]}`,
		`{"reports":[{"user":1},{"user":2},{"user":3}],"reports":[],"reports":[null,null]}`,
		"{\"Kind\":\"value\",\"reports\":[{\"Kind\":\"cohort\",\"\u017feed\":4,\"\u212aind\":\"hash\"}]}",
		"{\"reports\":[{\"k\u0131nd\":\"value\",\"seed\":1,\"\u0130\":2}]}",
		// Escapes, surrogate pairs, lone surrogates, non-ASCII bytes.
		`{"token":"t\u00e9\ud83d\ude00\ud800x\udc00\"\\\/\b\f\n\r\t","reports":[{"kind":"value","user":1}]}`,
		"{\"token\":\"\xff\xfe\xed\xa0\x80ok\",\"reports\":[{\"kind\":\"val\xffue\"}]}",
		"{\"token\":\"\xff\",\"reports\":[{\"kind\":\"value\",\"user\":1}]}\xff",
		`{"token":"\ud83dA","reports":null}`,
		// null everywhere.
		`null`,
		` null `,
		`{"round":null,"token":null,"reports":null}`,
		`{"round":4,"round":null,"reports":[null,{"user":null,"kind":null,"value":null,"seed":null,"bits":null,"packed":null,"num":null}]}`,
		`{"reports":[{"bits":"AQ==","bits":null,"packed":[1,2],"packed":null}]}`,
		`{"reports":[{"bits":[null,1,255]}]}`,
		// Integer and float literal rules.
		`{"round":1.0,"reports":[]}`,
		`{"round":1e2,"reports":[]}`,
		`{"reports":[{"user":-0,"value":-9223372036854775808,"seed":18446744073709551615}]}`,
		`{"reports":[{"value":9223372036854775808}]}`,
		`{"reports":[{"seed":18446744073709551616}]}`,
		`{"reports":[{"seed":-1}]}`,
		`{"reports":[{"seed":-0}]}`,
		`{"reports":[{"bits":[256]}]}`,
		`{"reports":[{"bits":[1.0]}]}`,
		`{"reports":[{"kind":"numeric","num":1e400}]}`,
		`{"reports":[{"kind":"numeric","num":1e-400}]}`,
		`{"reports":[{"kind":"numeric","num":-0.0}]}`,
		`{"reports":[{"kind":"numeric","num":4.9e-324}]}`,
		`{"reports":[{"kind":"numeric","num":"1"}]}`,
		`{"reports":[{"user":01}]}`,
		`{"reports":[{"user":-}]}`,
		`{"reports":[{"user":1.}]}`,
		`{"reports":[{"user":1e}]}`,
		// Wrong types and unknown keys.
		`{"round":"1","reports":[]}`,
		`{"token":5,"reports":[]}`,
		`{"reports":{}}`,
		`{"reports":["x"]}`,
		`{"reports":[{"bits":{}}]}`,
		`{"reports":[{"bits":"AQ="}]}`,
		"{\"reports\":[{\"packed\":\"AQID\\nBAUG\\r\"}]}",
		`{"extra":{"a":[1,{"b":null},"c",true,false,-1.5e+3]},"reports":[{"user":1,"x":[[[]]],"kind":"value"}]}`,
		`[]`,
		`"batch"`,
		`true`,
		`12`,
		`{"reports":[{"user":true}]}`,
		`{"reports":[[1]]}`,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"reports":[]}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"reports":[]}`,
		// Grammar and trailing bytes.
		`{"round":1,"token":"t","reports":[]}{"round":1,"token":"t","reports":[]}`,
		`{"round":1,"token":"t","reports":[]} x`,
		"{\"round\":1,\"token\":\"t\",\"reports\":[]}\n\t ",
		`{"round":1,}`,
		`{"reports":[1,]}`,
		`{,}`,
		`{"a" 1}`,
		`{"a":nul}`,
		`{"a":tru}`,
		"{\"a\":\"\x01\"}",
		`{"a":"\x"}`,
		`{"a":"\u12G4"}`,
		`{"reports":[{`,
		``,
		` `,
		"\xef\xbb\xbf{}",
		`{"reports":[{},{},{},{},{}]}`,
		// In the grammar: any whitespace between tokens, any key order,
		// absent fields, every number form num takes.
		"\r\n{ \"reports\" :\t[ { \"num\": -1.5E+2, \"kind\": \"numeric\" },\n\t{\"seed\":0,\"kind\":\"hash\",\"value\":-3,\"user\":-9223372036854775808} ] ,\"token\" : \"~ !#$%'()*+,-./09:;=?@AZ[]^_`az{|}\", \"round\":9223372036854775807 } \n",
		`{"token":"t","round":-1,"reports":[{"packed":"","kind":"packed"},{"packed":"AQIDBA==","user":1,"num":0.5e-3},{}]}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	scratch, trip := new(ingestScratch), new(ingestScratch)
	var frame []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONDecode(t, data, 4, scratch)
		h := fnv.New64a()
		h.Write(data)
		frame = checkJSONEncode(t, randomChunk(ldprand.New(h.Sum64()), alphabetToken(data[:min(len(data), 48)])), frame, trip)
	})
}

// TestJSONEncodeMatchesMarshal pins the encoder's corners without
// fuzzing: a token of every ASCII byte, refused outside tokenAlphabet and
// written as json.Marshal writes it inside, and every numEdges value as a
// numeric report — encoding/json's format switch at 1e-6 and 1e21, the
// unpadded exponent, subnormals, and NaN and ±Inf refused.
func TestJSONEncodeMatchesMarshal(t *testing.T) {
	var tokens []string
	for c := 0; c < 0x80; c++ {
		tokens = append(tokens, "t"+string(rune(c))+"t")
	}
	tokens = append(tokens, "\u2028\u2029\ufffd\xff\xc3", "\u00e9\U0001f600", "")
	var frame []byte
	s := new(ingestScratch)
	for _, tok := range tokens {
		frame = checkJSONEncode(t, chunk{round: -7, token: tok, users: []int{}, reports: []fo.Report{}}, frame, s)
	}
	for _, x := range numEdges {
		k := chunk{round: 1, token: "t", users: []int{3}, reports: []fo.Report{numericReport(x)}}
		frame = checkJSONEncode(t, k, frame, s)
	}
	if _, err := (chunk{token: "t", users: []int{0}, reports: []fo.Report{{Kind: fo.Kind(99)}}}).encodeJSON(nil); err == nil {
		t.Fatal("encodeJSON accepted a report kind it does not know")
	}
}

// jsonFoldRig is the steady-state server decode+fold path of the JSON
// wire without HTTP: one pre-encoded batch and a striped round that never
// runs out of report slots, replayed through the handler's own decodeJSON
// and foldBatch.
type jsonFoldRig struct {
	body    []byte
	reader  bytes.Reader
	reports int
	rd      *round
	scratch ingestScratch
	metrics *Metrics
}

func newJSONFoldRig(tb testing.TB, oracle fo.Oracle, batch int) *jsonFoldRig {
	const eps = 1.0
	src := ldprand.New(7)
	k := chunk{round: 1, token: "0123456789abcdef0123456789abcdef"}
	for u := 0; u < batch; u++ {
		k.users = append(k.users, u)
		k.reports = append(k.reports, oracle.Perturb(u%oracle.Domain(), eps, src))
	}
	body, err := k.encodeJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &jsonFoldRig{body: body, reports: batch, rd: newFoldRound(tb, oracle, k.token, batch), metrics: NewMetrics(nil)}
}

func (g *jsonFoldRig) decode(tb testing.TB) wireBatch {
	g.reader.Reset(g.body)
	b, err := decodeJSON(&g.reader, int64(len(g.body)), DefaultMaxBatch, &g.scratch)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func (g *jsonFoldRig) run(tb testing.TB) {
	b := g.decode(tb)
	if folded, ref := g.rd.foldBatch(b.reports, g.metrics); ref.err != nil {
		tb.Fatalf("refused after %d reports: %v", folded, ref.err)
	}
}

// TestJSONDecodeFoldAllocs mirrors TestBinaryDecodeFoldAllocs on the
// JSON wire: a warm decode and fold of an OLH-C batch allocates nothing —
// the body lands in the pooled frame, kind names are interned and the
// token aliases the frame — and neither does an OUE-packed one, whose
// base64 payloads decode into the pooled arena.
func TestJSONDecodeFoldAllocs(t *testing.T) {
	for _, o := range []fo.Oracle{fo.NewOLHC(1024), fo.NewOUE(1024)} {
		g := newJSONFoldRig(t, o, 64)
		g.run(t) // warm the scratch
		if allocs := testing.AllocsPerRun(20, func() { g.run(t) }); allocs != 0 {
			t.Errorf("%s: JSON decode+fold allocates %v times per batch, want 0", o.Name(), allocs)
		}
	}
}

// TestJSONEncodeAllocs mirrors TestBinaryEncodeAllocs on the JSON wire:
// perturbing a chunk into the client's reused contribution buffer and
// encoding it into a reused frame allocates nothing once both are warm.
func TestJSONEncodeAllocs(t *testing.T) {
	const n = 512
	oracle := fo.NewOLHC(1024)
	src := ldprand.New(5)
	pool := make([]fo.Report, n)
	for u := range pool {
		pool[u] = oracle.Perturb(u%1024, 1, src)
	}
	pool[0] = fo.Report{Kind: fo.KindPacked, Value: -1, Packed: make([]byte, 8*16)}
	pool[1] = numericReport(-0.375)
	cl, err := NewClient("http://127.0.0.1:0", 0, n, Funcs{Report: func(id, _ int, _ float64) fo.Report { return pool[id] }})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ri := &RoundInfo{Round: 1, T: 1, Eps: 1, Token: "0123456789abcdef0123456789abcdef"}
	users := Hosted(ri.Users, cl.first, cl.first+cl.count)
	var frame []byte
	run := func() {
		if frame, err = cl.perturb(ri, users).encodeJSON(frame); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the contribution buffer and the frame
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state JSON encode allocates %v times per chunk, want 0", allocs)
	}
}

// BenchmarkJSONDecode isolates the JSON wire's batch decode — body read
// into pooled scratch and the one-pass parse into canonical reports — on
// 4096-report batches, without HTTP or the fold.
//
//	go test -run '^$' -bench BenchmarkJSONDecode -benchmem ./internal/serve
func BenchmarkJSONDecode(b *testing.B) {
	for _, o := range []fo.Oracle{fo.NewOLHC(65536), fo.NewOUE(1024)} {
		b.Run(o.Name(), func(b *testing.B) {
			g := newJSONFoldRig(b, o, DefaultMaxBatch)
			g.decode(b)
			b.SetBytes(int64(len(g.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.decode(b)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.reports), "ns/report")
		})
	}
}
