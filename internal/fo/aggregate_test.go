package fo

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

// allOracles returns every registered oracle for domain size d, keyed for
// error messages.
func allOracles(d int) []Oracle {
	return []Oracle{NewGRR(d), NewOUE(d), NewSUE(d), NewOLH(d)}
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

// TestPackedPerturbMatchesUnpacked asserts that Perturb's packed bits
// are exactly the vector the per-element reference draws from the same
// randomness, for both unary schemes, at a whole and a partial last word.
func TestPackedPerturbMatchesUnpacked(t *testing.T) {
	for _, d := range []int{64, 100} {
		for _, u := range []*unary{&NewOUE(d).unary, &NewSUE(d).unary} {
			srcA := ldprand.New(7)
			srcB := ldprand.New(7)
			for i := 0; i < 200; i++ {
				v := i % d
				want := perturbBytes(u, v, 1.0, srcA)
				r := u.Perturb(v, 1.0, srcB)
				if r.Kind != KindPacked || r.Value != -1 || len(r.Packed) != packedBytes(d) {
					t.Fatalf("%s d=%d: report %+v", u.name, d, r)
				}
				if !bytes.Equal(UnpackBits(r.Packed, d), want) || !bytes.Equal(PackBits(want), r.Packed) {
					t.Fatalf("%s d=%d report %d: packed bits differ from the per-element draw", u.name, d, i)
				}
			}
		}
	}
}

// TestPackedAggregationEquivalence is the property test behind the packed
// aggregator: over random domains and report counts, its counters equal a
// naive per-element count of the same reports and its estimate is that
// count's finish, bit for bit.
func TestPackedAggregationEquivalence(t *testing.T) {
	src := ldprand.New(33)
	f := func(dRaw uint8, nRaw uint16) bool {
		d := int(dRaw)%150 + 2
		n := int(nRaw)%600 + 1 // past one plane drain
		o := NewOUE(d)
		reports := make([]Report, n)
		for i := range reports {
			reports[i] = o.Perturb(i%d, 1.0, src)
		}
		agg, err := o.NewAggregator(1.0)
		if err != nil {
			return false
		}
		for _, r := range reports {
			if agg.Add(r) != nil {
				return false
			}
		}
		f, err := ExportCounters(agg)
		if err != nil || !slices.Equal(f.Counts, naiveCounts(reports, d)) {
			return false
		}
		est, err := agg.Estimate()
		return err == nil && slices.Equal(est, naiveEstimate(&o.unary, reports, 1.0))
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
		return bytes.Equal(UnpackBits(PackBits(bits), len(bits)), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPackedReportSizeRatio pins the unary report's size: 8·⌈d/64⌉
// payload bytes plus the 4-byte header, so close to 8 domain elements per
// byte (20 B at d = 77, 132 B at d = 1024).
func TestPackedReportSizeRatio(t *testing.T) {
	src := ldprand.New(5)
	for _, c := range []struct{ d, size int }{{77, 20}, {1024, 132}} {
		for _, o := range []Oracle{NewOUE(c.d), NewSUE(c.d)} {
			if got := o.Perturb(3, 1.0, src).Size(); got != c.size {
				t.Fatalf("%s d=%d: report size %d, want %d", o.Name(), c.d, got, c.size)
			}
		}
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

// BenchmarkUnaryAggregatePacked folds 10k bit-packed OUE reports through
// the carry-save plane accumulator.
func BenchmarkUnaryAggregatePacked(b *testing.B) {
	o := NewOUE(1024)
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
	o := NewOUE(d)
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
