package fo

import (
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

// allOracles returns every registered oracle for domain size d, keyed for
// error messages.
func allOracles(d int) []Oracle {
	return []Oracle{
		NewGRR(d), NewOUE(d), NewSUE(d), NewOLH(d),
		NewOUEPacked(d), NewSUEPacked(d),
	}
}

// TestStreamingMatchesBatch asserts the satellite property: folding
// reports one at a time through Aggregator.Add yields EXACTLY the batch
// Estimate(reports, eps) result — same count math, bit-identical floats —
// for all oracles on a spread of domain sizes.
func TestStreamingMatchesBatch(t *testing.T) {
	src := ldprand.New(2024)
	for _, d := range []int{2, 5, 64, 130} {
		for _, o := range allOracles(d) {
			eps := 1.0
			reports := make([]Report, 500)
			for i := range reports {
				reports[i] = o.Perturb(i%d, eps, src)
			}
			batch, err := o.Estimate(reports, eps)
			if err != nil {
				t.Fatalf("%s d=%d: batch: %v", o.Name(), d, err)
			}
			agg, err := o.NewAggregator(eps)
			if err != nil {
				t.Fatalf("%s d=%d: %v", o.Name(), d, err)
			}
			for _, r := range reports {
				if err := agg.Add(r); err != nil {
					t.Fatalf("%s d=%d: add: %v", o.Name(), d, err)
				}
			}
			if got := agg.Reports(); got != len(reports) {
				t.Fatalf("%s d=%d: aggregator folded %d reports, want %d", o.Name(), d, got, len(reports))
			}
			stream, err := agg.Estimate()
			if err != nil {
				t.Fatalf("%s d=%d: stream: %v", o.Name(), d, err)
			}
			for k := range batch {
				if stream[k] != batch[k] {
					t.Fatalf("%s d=%d elem %d: streaming %v != batch %v",
						o.Name(), d, k, stream[k], batch[k])
				}
			}
		}
	}
}

// TestPackedPerturbMatchesUnpacked asserts that with identical randomness
// the packed client emits exactly the same bit pattern as the byte-wise
// client, for both unary schemes.
func TestPackedPerturbMatchesUnpacked(t *testing.T) {
	for _, scheme := range []struct {
		name          string
		plain, packed Oracle
	}{
		{"OUE", NewOUE(100), NewOUEPacked(100)},
		{"SUE", NewSUE(100), NewSUEPacked(100)},
	} {
		srcA := ldprand.New(7)
		srcB := ldprand.New(7)
		for i := 0; i < 200; i++ {
			v := i % 100
			a := scheme.plain.Perturb(v, 1.0, srcA)
			b := scheme.packed.Perturb(v, 1.0, srcB)
			if a.Kind != KindUnary || b.Kind != KindPacked {
				t.Fatalf("%s: kinds %v/%v", scheme.name, a.Kind, b.Kind)
			}
			got := UnpackBits(b.Packed, 100)
			for k := range a.Bits {
				if a.Bits[k] != got[k] {
					t.Fatalf("%s report %d: bit %d differs", scheme.name, i, k)
				}
			}
		}
	}
}

// TestPackedAggregationEquivalence is the satellite property test: packed
// and unpacked encodings of the SAME unary payloads aggregate to exactly
// equal estimates (shared integer count math, exact float equality).
func TestPackedAggregationEquivalence(t *testing.T) {
	src := ldprand.New(33)
	f := func(dRaw uint8, nRaw uint8) bool {
		d := int(dRaw)%150 + 2
		n := int(nRaw)%40 + 1
		o := NewOUE(d)
		plain := make([]Report, n)
		packed := make([]Report, n)
		for i := range plain {
			plain[i] = o.Perturb(i%d, 1.0, src)
			packed[i] = Report{Kind: KindPacked, Value: -1, Packed: PackBits(plain[i].Bits)}
		}
		ep, err1 := o.Estimate(plain, 1.0)
		eq, err2 := o.Estimate(packed, 1.0)
		if err1 != nil || err2 != nil {
			return false
		}
		for k := range ep {
			if ep[k] != eq[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPackRoundTrip checks PackBits/UnpackBits are inverse for arbitrary
// bit vectors.
func TestPackRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]byte, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		got := UnpackBits(PackBits(bits), len(bits))
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedReportSizeRatio pins the wire win: at d=1024 a packed unary
// report is ~7.8x smaller than the byte-per-element format (asymptotically
// 8x).
func TestPackedReportSizeRatio(t *testing.T) {
	const d = 1024
	src := ldprand.New(5)
	plain := NewOUE(d).Perturb(3, 1.0, src)
	packed := NewOUEPacked(d).Perturb(3, 1.0, src)
	if plain.Size() != d+4 {
		t.Fatalf("plain size %d", plain.Size())
	}
	if packed.Size() != 8*(d/64)+4 {
		t.Fatalf("packed size %d", packed.Size())
	}
	if ratio := float64(plain.Size()) / float64(packed.Size()); ratio < 7.5 {
		t.Fatalf("packed compression ratio %.2f, want ~8x", ratio)
	}
}

// TestAggregatorValidation covers aggregator-level error paths.
func TestAggregatorValidation(t *testing.T) {
	if _, err := NewGRR(4).NewAggregator(0); err != ErrBadEpsilon {
		t.Fatalf("zero eps: %v", err)
	}
	agg, err := NewOUE(70).NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Estimate(); err != ErrNoReports {
		t.Fatalf("empty aggregator estimate: %v", err)
	}
	if err := agg.Add(Report{Kind: KindPacked, Packed: make([]byte, 8)}); err == nil {
		t.Fatal("short packed report accepted")
	}
	if err := agg.Add(Report{Kind: KindPacked, Packed: make([]byte, packedBytes(70)-1)}); err == nil {
		t.Fatal("packed report ending inside a word accepted")
	}
	// A stray bit beyond the domain must be rejected, not silently counted.
	bad := make([]byte, packedBytes(70))
	bad[84>>3] = 1 << (84 & 7) // bit 84 >= d=70
	if err := agg.Add(Report{Kind: KindPacked, Packed: bad}); err == nil {
		t.Fatal("stray high bit accepted")
	}
	g, err := NewGRR(4).NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Add(Report{Kind: KindHash, Value: 1, Seed: 3}); err == nil {
		t.Fatal("hash report accepted by GRR aggregator")
	}
}

// BenchmarkUnaryAggregateBytes folds 10k byte-per-element OUE reports.
func BenchmarkUnaryAggregateBytes(b *testing.B) {
	benchmarkUnaryAggregate(b, NewOUE(1024))
}

// BenchmarkUnaryAggregatePacked folds 10k bit-packed OUE reports: the
// word-wise set-bit walk touches ~q·d counters per report instead of
// scanning all d bytes.
func BenchmarkUnaryAggregatePacked(b *testing.B) {
	benchmarkUnaryAggregate(b, NewOUEPacked(1024))
}

func benchmarkUnaryAggregate(b *testing.B, o Oracle) {
	src := ldprand.New(1)
	reports := make([]Report, 10000)
	bytes := 0
	for i := range reports {
		reports[i] = o.Perturb(i%o.Domain(), 1.0, src)
		bytes += reports[i].Size()
	}
	b.ReportMetric(float64(bytes)/float64(len(reports)), "bytes/report")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agg, err := o.NewAggregator(1.0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			if err := agg.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := agg.Estimate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackedFlush64k measures one plane drain of the carry-save
// packed accumulator at d=65536: what a stripe pays every 248 OUE reports
// at ε=1 (q = 0.27), with its planes as full as Add lets them get — per
// word, the eight planes transposed into 64 byte counters and added into
// the flat int64 counters. Each iteration first restores the full planes
// (a 64 KiB copy).
func BenchmarkPackedFlush64k(b *testing.B) { benchmarkPackedFlush(b, 1.0) }

// BenchmarkPackedFlush64kDense is the same drain at ε=0.1 (q = 0.475),
// the density budget-division rounds (LBU/LBD at ε/w) actually send —
// where a drain that walked set bits would be slowest.
func BenchmarkPackedFlush64kDense(b *testing.B) { benchmarkPackedFlush(b, 0.1) }

func benchmarkPackedFlush(b *testing.B, eps float64) {
	const d, depth = 65536, maxPlaneDepth - batchReports + 1
	o := NewOUEPacked(d)
	src := ldprand.New(1)
	p := newPackedAccumulator(packedWords(d))
	for u := 0; u < depth; u++ {
		p.add(o.Perturb(u%d, eps, src).Packed)
	}
	if p.depth != depth || p.nbuf != 0 {
		b.Fatalf("planes hold %d reports with %d buffered, want %d and 0", p.depth, p.nbuf, depth)
	}
	full := append([]uint64(nil), p.planes...)
	counts := make([]int64, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p.planes, full)
		p.depth = depth
		p.flushInto(counts)
	}
}
