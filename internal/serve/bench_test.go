package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
)

// BenchmarkHTTPFold measures ingestion throughput through POST /v1/report
// at d=65536: one pre-encoded batch of perturbed reports per round, folded
// into shard-local fo.StripedAggregator stripes by the handler — one
// aggregator, re-armed with fo.Reset every round as collect.Env does. The
// reported reports/s includes HTTP transport, batch decoding (JSON+base64
// or the binary framing, per the -wire suffix), and the fold itself — the
// full server-side cost of one uploaded report.
//
//	go test -bench BenchmarkHTTPFold -run xxx ./internal/serve
func BenchmarkHTTPFold(b *testing.B) {
	const (
		d     = 65536
		batch = 256
		eps   = 1.0
	)
	for _, tc := range []struct {
		name   string
		oracle fo.Oracle
		wire   Wire
	}{
		{"OUE-packed-d65536", fo.NewOUE(d), WireJSON},
		{"OLH-C-d65536", fo.NewOLHC(d), WireJSON},
		{"OUE-packed-d65536-binary", fo.NewOUE(d), WireBinary},
		{"OLH-C-d65536-binary", fo.NewOLHC(d), WireBinary},
	} {
		b.Run(tc.name, func(b *testing.B) {
			backend, err := NewBackend(batch)
			if err != nil {
				b.Fatal(err)
			}
			backend.Timeout = time.Minute
			backend.rounds.tokens = func() string { return "bench" }
			ts := httptest.NewServer(backend)
			defer ts.Close()
			defer backend.Close()

			// Pre-encode one round's reports; only the round id changes
			// between iterations.
			src := ldprand.New(7)
			reports := make([]history.Report, batch)
			users := make([]int, batch)
			for u := range reports {
				users[u] = u
				reports[u] = encodeReport(u, tc.oracle.Perturb(u%d, eps, src))
			}
			var body func(round int64) []byte
			contentType := ContentTypeJSON
			if tc.wire == WireBinary {
				contentType = ContentTypeBinary
				frame := binaryFrame(b, reportBatch{Round: 0, Token: "bench", Reports: reports})
				body = func(round int64) []byte {
					// The round id sits at a fixed offset after magic+version.
					binary.LittleEndian.PutUint64(frame[5:], uint64(round))
					return frame
				}
			} else {
				reportsJSON, err := json.Marshal(reports)
				if err != nil {
					b.Fatal(err)
				}
				body = func(round int64) []byte {
					var buf bytes.Buffer
					fmt.Fprintf(&buf, `{"round":%d,"token":"bench","reports":`, round)
					buf.Write(reportsJSON)
					buf.WriteByte('}')
					return buf.Bytes()
				}
			}
			client := ts.Client()
			agg, err := fo.NewStripedAggregator(tc.oracle, eps, 0)
			if err != nil {
				b.Fatal(err)
			}

			b.SetBytes(int64(len(body(1))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fo.Reset(agg, eps); err != nil {
					b.Fatal(err)
				}
				done := make(chan error, 1)
				go func() {
					done <- backend.Collect(collect.Request{T: i + 1, Users: users, Eps: eps},
						collect.AggregatorSink{Agg: agg})
				}()
				// Wait for the round to open before posting, or the batch
				// races the Collect goroutine and bounces with a 409.
				for {
					if rd, _ := backend.rounds.Current(); rd != nil && rd.id == int64(i+1) {
						break
					}
					time.Sleep(10 * time.Microsecond)
				}
				resp, err := client.Post(ts.URL+"/v1/report", contentType,
					bytes.NewReader(body(int64(i+1))))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					msg, _ := io.ReadAll(resp.Body)
					b.Fatalf("POST status %d: %s", resp.StatusCode, msg)
				}
				resp.Body.Close()
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkClientAnswerBinary measures one report's whole crossing of the
// binary wire with the real client in the loop: a serve.Client answers one
// 512 × 8 KiB OUE-packed round (d=65536; the reports are perturbed ahead of
// time) against an in-process Backend over loopback HTTP — collect the
// contributions, encode the 4 MiB frame, post, read, decode, fold into one
// round aggregator re-armed with fo.Reset every round, as collect.Env does.
// B/report is everything the process allocates for that, client and server
// sides together.
//
//	go test -bench BenchmarkClientAnswerBinary -run xxx ./internal/serve
func BenchmarkClientAnswerBinary(b *testing.B) {
	const (
		d   = 65536
		n   = 512
		eps = 1.0
	)
	oracle := fo.NewOUE(d)
	src := ldprand.New(7)
	reports := make([]fo.Report, n)
	for u := range reports {
		reports[u] = oracle.Perturb(u%d, eps, src)
	}
	backend, err := NewBackend(n)
	if err != nil {
		b.Fatal(err)
	}
	backend.Timeout = time.Minute
	ts := httptest.NewServer(backend)
	defer ts.Close()
	defer backend.Close()
	cl, err := NewClient(ts.URL, 0, n, Funcs{Report: func(id, _ int, _ float64) fo.Report { return reports[id] }})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	cl.Wire = WireBinary

	agg, err := fo.NewStripedAggregator(oracle, eps, 0)
	if err != nil {
		b.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.SetBytes(n * (d/8 + 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fo.Reset(agg, eps); err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- backend.Collect(collect.Request{T: i + 1, Eps: eps}, collect.AggregatorSink{Agg: agg})
		}()
		var rd *round
		for rd == nil || rd.id != int64(i+1) {
			time.Sleep(10 * time.Microsecond)
			rd, _ = backend.rounds.Current()
		}
		if err := cl.answer(&RoundInfo{Round: rd.id, T: rd.t, Eps: rd.eps, Token: rd.token, N: n}); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "reports/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(n*b.N), "B/report")
}

// binaryFoldRig is the steady-state server decode+fold path of the binary
// wire without HTTP: one pre-encoded batch of packed reports and a striped
// round that never runs out of report slots, so run can replay the batch
// through the handler's own decodeBinary and foldBatch any number of times.
type binaryFoldRig struct {
	frame   []byte
	body    bytes.Reader
	rd      *round
	scratch ingestScratch
	metrics *Metrics
}

func newBinaryFoldRig(tb testing.TB, d, batch int) *binaryFoldRig {
	const eps = 1.0
	oracle := fo.NewOUE(d)
	src := ldprand.New(7)
	reports := make([]history.Report, batch)
	for u := range reports {
		reports[u] = encodeReport(u, oracle.Perturb(u%d, eps, src))
	}
	frame := binaryFrame(tb, reportBatch{Round: 1, Token: "bench", Reports: reports})
	return &binaryFoldRig{frame: frame, rd: newFoldRound(tb, oracle, "bench", batch), metrics: NewMetrics(nil)}
}

// newFoldRound opens round 1 over a 4-stripe aggregator of oracle at
// ε = 1 for users [0, n), each with slots enough never to run out, so a
// rig can replay one batch into it any number of times.
func newFoldRound(tb testing.TB, oracle fo.Oracle, token string, n int) *round {
	const eps = 1.0
	agg, err := fo.NewStripedAggregator(oracle, eps, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rd := newRound(1, token, collect.Request{T: 1, Eps: eps}, n, collect.AggregatorSink{Agg: agg})
	if rd.striped == nil {
		tb.Fatal("the rig's round does not fold stripe-locally")
	}
	for u := range rd.pending {
		rd.pending[u] = 1 << 40
	}
	rd.remaining = 1 << 50
	return rd
}

func (g *binaryFoldRig) run(tb testing.TB) {
	g.body.Reset(g.frame)
	b, err := decodeBinary(&g.body, int64(len(g.frame)), DefaultMaxBatch, &g.scratch)
	if err != nil {
		tb.Fatal(err)
	}
	if folded, ref := g.rd.foldBatch(b.reports, g.metrics); ref.err != nil {
		tb.Fatalf("refused after %d reports: %v", folded, ref.err)
	}
}

// BenchmarkBinaryDecodeFold isolates the steady-state server decode+fold
// path of the binary wire — body read into scratch, header parse,
// structural validation, packed decode into scratch, slot claim, stripe
// fold — without HTTP. TestBinaryDecodeFoldAllocs pins it at 0 allocs/op.
//
//	go test -bench BenchmarkBinaryDecodeFold -benchmem -run xxx ./internal/serve
func BenchmarkBinaryDecodeFold(b *testing.B) {
	const batch = 256
	g := newBinaryFoldRig(b, 65536, batch)
	b.SetBytes(int64(len(g.frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.run(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "reports/s")
}

// TestBinaryDecodeFoldAllocs pins the steady-state binary decode+fold path
// at zero allocations per batch over a striped sink, so the decoder
// abstraction cannot silently add a per-report closure, copy, or
// interface-boxing allocation.
func TestBinaryDecodeFoldAllocs(t *testing.T) {
	g := newBinaryFoldRig(t, 1024, 64)
	g.run(t) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() { g.run(t) }); allocs != 0 {
		t.Fatalf("binary decode+fold allocates %v times per batch, want 0", allocs)
	}
}

// BenchmarkSnapshotsPublish is one d = 65536 release published to the
// snapshot store and delivered to every SSE subscriber of /v1/stream: an op
// returns once each subscriber has read the release's event, so it covers
// Publish, each stream handler's JSON encoding and the loopback write. With
// no subscribers it is Publish alone. Every op publishes the same release,
// which is never written to.
//
//	go test -run '^$' -bench BenchmarkSnapshotsPublish -benchmem ./internal/serve
func BenchmarkSnapshotsPublish(b *testing.B) {
	const d = 65536
	src := ldprand.New(89)
	release := make([]float64, d)
	for k := range release {
		release[k] = src.Float64() / d
	}
	for _, subs := range []int{0, 4} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			s := NewSnapshots()
			ts := httptest.NewServer(s)
			defer ts.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			read := make(chan int64, subs)
			for i := 0; i < subs; i++ {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				go func() {
					sc := bufio.NewScanner(resp.Body)
					sc.Buffer(make([]byte, 0, 2<<20), 8<<20)
					var id int64
					for sc.Scan() {
						line := sc.Text()
						if v, ok := strings.CutPrefix(line, "id: "); ok {
							id, _ = strconv.ParseInt(v, 10, 64)
						} else if strings.HasPrefix(line, "data: ") {
							read <- id
						}
					}
				}()
			}
			t := 0
			publish := func() {
				t++
				s.Publish(t, release)
				for i := 0; i < subs; i++ {
					if v := <-read; v != int64(t) {
						b.Fatalf("a subscriber read version %d, want %d", v, t)
					}
				}
			}
			publish() // every subscriber is attached once it has read one release
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				publish()
			}
		})
	}
}
