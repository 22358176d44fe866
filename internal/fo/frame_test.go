package fo

import (
	"math"
	"strings"
	"testing"

	"ldpids/internal/ldprand"
)

// frameOracles returns one oracle per counter shape family, covering every
// report wire kind.
func frameOracles() map[string]Oracle {
	return map[string]Oracle{
		"GRR":        NewGRR(7),
		"OUE":        NewOUE(9),
		"OUE-packed": mustNew("OUE-packed", 70),
		"SUE":        NewSUE(6),
		"OLH":        NewOLH(8),
		"OLH-C":      NewOLHCCohorts(16, 4),
	}
}

// TestFrameMergeBitIdentical is the cluster's correctness core: folding a
// report stream into several aggregators, exporting their frames, and
// merging them into one aggregator must estimate bit-identically to
// folding every report into a single aggregator — for every oracle, and
// regardless of how the stream was partitioned.
func TestFrameMergeBitIdentical(t *testing.T) {
	const n, eps = 120, 1.0
	for name, o := range frameOracles() {
		t.Run(name, func(t *testing.T) {
			src := ldprand.New(77)
			reports := make([]Report, n)
			for u := range reports {
				reports[u] = o.Perturb(u%o.Domain(), eps, src)
			}

			reference, err := o.NewAggregator(eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if err := reference.Add(r); err != nil {
					t.Fatal(err)
				}
			}
			want, err := reference.Estimate()
			if err != nil {
				t.Fatal(err)
			}

			// Partition the stream into three uneven shards.
			merged, err := o.NewAggregator(eps)
			if err != nil {
				t.Fatal(err)
			}
			for _, bounds := range [][2]int{{0, 17}, {17, 80}, {80, n}} {
				shard, err := o.NewAggregator(eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range reports[bounds[0]:bounds[1]] {
					if err := shard.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				frame, err := ExportCounters(shard)
				if err != nil {
					t.Fatal(err)
				}
				if err := frame.Validate(); err != nil {
					t.Fatalf("exported frame invalid: %v", err)
				}
				if err := MergeCounters(merged, frame); err != nil {
					t.Fatal(err)
				}
			}
			got, err := merged.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("estimate length %d, want %d", len(got), len(want))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("element %d: merged estimate %v != reference %v", k, got[k], want[k])
				}
			}
		})
	}
}

// TestFrameExportCopies: later folds must not alias an exported frame.
func TestFrameExportCopies(t *testing.T) {
	o := NewGRR(4)
	agg, err := o.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(Report{Kind: KindValue, Value: 2}); err != nil {
		t.Fatal(err)
	}
	frame, err := ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(Report{Kind: KindValue, Value: 2}); err != nil {
		t.Fatal(err)
	}
	if frame.N != 1 || frame.Counts[2] != 1 {
		t.Fatalf("exported frame mutated by a later fold: %+v", frame)
	}
}

// TestFrameStripedExport: a StripedAggregator exports the sum of its
// stripes — before Estimate from all stripes, after Estimate from the
// merged stripe — and both match the plain aggregator's frame.
func TestFrameStripedExport(t *testing.T) {
	const n, eps = 60, 0.8
	o := NewOUE(40)
	src := ldprand.New(5)
	reports := make([]Report, n)
	for u := range reports {
		reports[u] = o.Perturb(u%o.Domain(), eps, src)
	}
	plain, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStripedAggregator(o, eps, 4)
	if err != nil {
		t.Fatal(err)
	}
	for u, r := range reports {
		if err := plain.Add(r); err != nil {
			t.Fatal(err)
		}
		if err := striped.AddStripe(u%striped.Stripes(), r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ExportCounters(plain)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ExportCounters(striped)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "before Estimate", before, want)
	if _, err := striped.Estimate(); err != nil {
		t.Fatal(err)
	}
	after, err := ExportCounters(striped)
	if err != nil {
		t.Fatal(err)
	}
	assertFramesEqual(t, "after Estimate", after, want)
}

// assertFramesEqual fails the test unless the two frames are identical.
func assertFramesEqual(t *testing.T, label string, got, want CounterFrame) {
	t.Helper()
	if got.Shape != want.Shape || got.N != want.N || got.K != want.K || got.G != want.G {
		t.Fatalf("%s: frame header %+v, want %+v", label, got, want)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d counters, want %d", label, len(got.Counts), len(want.Counts))
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("%s: counter %d is %d, want %d", label, i, got.Counts[i], want.Counts[i])
		}
	}
}

// TestFrameStripedMerge: merging a frame into a StripedAggregator is
// bit-identical to folding the frame's reports directly, and fails after
// Estimate.
func TestFrameStripedMerge(t *testing.T) {
	const eps = 1.2
	o := NewGRR(5)
	src := ldprand.New(9)

	remote, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStripedAggregator(o, eps, 3)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		r := o.Perturb(u%o.Domain(), eps, src)
		var local Aggregator = striped
		if u%2 == 0 {
			local = remote // "remote" shard half
		}
		if err := local.Add(r); err != nil {
			t.Fatal(err)
		}
		if err := reference.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := ExportCounters(remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeCounters(striped, frame); err != nil {
		t.Fatal(err)
	}
	got, err := striped.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := reference.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("element %d: %v != %v", k, got[k], want[k])
		}
	}
	if err := MergeCounters(striped, frame); err == nil {
		t.Fatal("merge after Estimate succeeded; want error")
	}
}

// TestFrameValidate covers the structural failure modes, above all the
// zero shape: a frame that was never explicitly shaped must not pass.
func TestFrameValidate(t *testing.T) {
	cases := map[string]CounterFrame{
		"zero shape":        {N: 3, Counts: make([]int64, 4)},
		"unknown shape":     {Shape: FrameShape(99), Counts: make([]int64, 4)},
		"negative count":    {Shape: FrameCounts, N: -1, Counts: make([]int64, 4)},
		"counts with dims":  {Shape: FrameCounts, K: 2, G: 2, Counts: make([]int64, 4)},
		"cohort bad dims":   {Shape: FrameCohort, K: 0, G: 4, Counts: nil},
		"cohort wrong size": {Shape: FrameCohort, K: 2, G: 3, Counts: make([]int64, 5)},
		"negative counter":  {Shape: FrameCounts, N: 2, Counts: []int64{3, 0, -1, 0}},
		"negative cell":     {Shape: FrameCohort, N: 2, K: 2, G: 2, Counts: []int64{0, 0, 0, math.MinInt64}},
	}
	for name, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate passed; want error", name)
		}
	}
	ok := CounterFrame{Shape: FrameCounts, N: 2, Counts: make([]int64, 4)}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid counts frame rejected: %v", err)
	}
}

// TestFrameShapeMismatch: shape and dimension mismatches are refused by
// MergeCounters, not silently mis-added.
func TestFrameShapeMismatch(t *testing.T) {
	grr, err := NewGRR(4).NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	olhc, err := NewOLHCCohorts(8, 4).NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	cohortFrame, err := ExportCounters(olhc)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeCounters(grr, cohortFrame); err == nil || !strings.Contains(err.Error(), "cohort") {
		t.Fatalf("cohort frame merged into GRR aggregator: %v", err)
	}
	countsFrame, err := ExportCounters(grr)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeCounters(olhc, countsFrame); err == nil {
		t.Fatal("counts frame merged into OLH-C aggregator")
	}
	wrong := CounterFrame{Shape: FrameCounts, N: 1, Counts: make([]int64, 9)}
	if err := MergeCounters(grr, wrong); err == nil {
		t.Fatal("length-mismatched frame merged")
	}
}

// TestFrameWireRoundTrip is the property behind the cluster's shipment
// codec: encode → decode is the identity on frames of both shapes — empty,
// all-zero, sparse, fully dense, with cells at the int64 extremes — the
// encoding is as long as WireSize says, and decoding into storage that
// still holds an earlier, longer frame leaves none of it behind.
func TestFrameWireRoundTrip(t *testing.T) {
	src := ldprand.New(77)
	cell := func() int64 {
		switch src.Intn(8) {
		case 0:
			return math.MaxInt64
		case 1:
			return math.MinInt64
		case 2:
			return -1 - int64(src.Intn(1000))
		default:
			return 1 + int64(src.Uint64()>>uint(1+src.Intn(63)))
		}
	}
	// counts draws n counters, each non-zero with probability density.
	counts := func(n int, density float64) []int64 {
		out := make([]int64, n)
		for i := range out {
			if src.Float64() < density {
				out[i] = cell()
			}
		}
		return out
	}
	frames := []CounterFrame{
		{},
		{Shape: FrameCounts},
		{Shape: FrameCounts, N: 9, Counts: make([]int64, 300)},
		{Shape: FrameCohort, N: 1, K: 3, G: 5, Counts: make([]int64, 15)},
		{Shape: FrameCounts, N: math.MaxInt64, Counts: []int64{math.MaxInt64}},
		{Shape: FrameShape(200), N: -5, K: math.MaxUint32, G: 1, Counts: []int64{0, 0, math.MinInt64}},
	}
	for i := 0; i < 200; i++ {
		density := []float64{0, 0.02, 0.5, 1}[i%4]
		if i%2 == 0 {
			frames = append(frames, CounterFrame{Shape: FrameCounts, N: src.Intn(1 << 20), Counts: counts(src.Intn(2000), density)})
		} else {
			k, g := 1+src.Intn(40), 1+src.Intn(40)
			frames = append(frames, CounterFrame{Shape: FrameCohort, N: src.Intn(1 << 20), K: k, G: g, Counts: counts(k*g, density)})
		}
	}
	var got CounterFrame // reused, so every decode lands on the previous frame's counters
	for i, f := range frames {
		enc, err := f.AppendWire([]byte("prefix"))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		enc = enc[len("prefix"):]
		if len(enc) != f.WireSize() {
			t.Fatalf("frame %d: encoding is %d bytes, WireSize says %d", i, len(enc), f.WireSize())
		}
		if err := got.DecodeWire(enc, len(f.Counts)); err != nil {
			t.Fatalf("frame %d: decoding its own encoding: %v", i, err)
		}
		assertFramesEqual(t, "round trip", got, f)
		if len(f.Counts) > 0 {
			if err := got.DecodeWire(enc, len(f.Counts)-1); err == nil {
				t.Fatalf("frame %d: %d counters decoded under a cap of %d", i, len(f.Counts), len(f.Counts)-1)
			}
		}
	}
	if _, err := (CounterFrame{Shape: FrameCohort, K: -1, G: 2}).AppendWire(nil); err == nil {
		t.Fatal("a negative dimension encoded")
	}
}

// TestFrameExportIntoReusesStorage: ExportCountersInto overwrites the
// destination whatever it held — including a longer frame of the other
// shape — matches ExportCounters, and keeps the storage once it fits.
func TestFrameExportIntoReusesStorage(t *testing.T) {
	src := ldprand.New(12)
	var dst CounterFrame
	for _, name := range []string{"OLH-C", "GRR", "OUE-packed", "GRR"} {
		o := frameOracles()[name]
		striped, err := NewStripedAggregator(o, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 50; u++ {
			if err := striped.AddStripe(u%3, o.Perturb(u%o.Domain(), 1, src)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ExportCounters(striped)
		if err != nil {
			t.Fatal(err)
		}
		before := cap(dst.Counts)
		if err := ExportCountersInto(striped, &dst); err != nil {
			t.Fatal(err)
		}
		assertFramesEqual(t, name, dst, want)
		if before >= len(want.Counts) && cap(dst.Counts) != before {
			t.Fatalf("%s: storage of %d counters replaced for a frame of %d", name, before, len(want.Counts))
		}
	}
}
