package fo

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"ldpids/internal/ldprand"
)

// packedReports perturbs n packed OUE reports for domain d.
func packedReports(o Oracle, n, d int, src *ldprand.Source) []Report {
	reports := make([]Report, n)
	for i := range reports {
		reports[i] = o.Perturb(i%d, 1.0, src)
	}
	return reports
}

// TestPackedAccumulatorBitIdentical proves vertical bit-plane counting is
// a pure reordering of integer additions: folding packed reports through
// the plane accumulator (including partial planes pending at read time)
// yields counters and estimates bit-identical to the byte-per-element
// unary path on the same payloads, across flush boundaries, exportFrame,
// and mergeShard.
func TestPackedAccumulatorBitIdentical(t *testing.T) {
	const d = 131 // odd tail word exercises the partial last word
	o := NewOUEPacked(d)
	// 3*maxPlaneDepth+17 reports: several full flushes plus a pending
	// partial set of planes at every read below.
	reports := packedReports(o, 3*maxPlaneDepth+17, d, ldprand.New(11))

	packedAgg, err := o.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	unaryAgg, err := NewOUE(d).NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if err := packedAgg.Add(r); err != nil {
			t.Fatal(err)
		}
		if err := unaryAgg.Add(Report{Kind: KindUnary, Value: -1, Bits: UnpackBits(r.Packed, d)}); err != nil {
			t.Fatal(err)
		}
	}

	// exportFrame with pending planes must carry the full counters.
	pf, err := ExportCounters(packedAgg)
	if err != nil {
		t.Fatal(err)
	}
	uf, err := ExportCounters(unaryAgg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Counts) != len(uf.Counts) {
		t.Fatalf("frame shapes differ: %d vs %d", len(pf.Counts), len(uf.Counts))
	}
	for k := range pf.Counts {
		if pf.Counts[k] != uf.Counts[k] {
			t.Fatalf("counts[%d] = %d via planes, %d via bytes", k, pf.Counts[k], uf.Counts[k])
		}
	}

	want, err := unaryAgg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := packedAgg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("estimate[%d] = %v via planes, %v via bytes", k, got[k], want[k])
		}
	}
}

// TestPackedAccumulatorMergePending folds packed reports into two
// aggregators and merges them while both still hold pending planes: the
// merge must see flushed counters on both sides.
func TestPackedAccumulatorMergePending(t *testing.T) {
	const d = 64
	o := NewOUEPacked(d)
	src := ldprand.New(5)
	reports := packedReports(o, 2*maxPlaneDepth+31, d, src)

	reference, err := o.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStripedAggregator(o, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reports {
		if err := reference.Add(r); err != nil {
			t.Fatal(err)
		}
		// Uneven stripe spread: every stripe ends with pending planes.
		if err := striped.AddStripe(i%3, r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := reference.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := striped.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("estimate lengths differ: %d vs %d", len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("estimate[%d] = %v striped, %v plain", k, got[k], want[k])
		}
	}
	if got, want := striped.Reports(), len(reports); got != want {
		t.Fatalf("striped folded %d reports, want %d", got, want)
	}
}

// TestPackedPerturbGolden pins what devices emit: the digests are of
// NewOUEPacked(d).Perturb payloads — 16 per case from one seed — recorded
// as little-endian word bytes at commit bf2066c, when Perturb still set
// bits in []uint64 words. Building the same bytes directly must change no
// bit and no draw.
func TestPackedPerturbGolden(t *testing.T) {
	for _, tc := range []struct {
		d    int
		eps  float64
		want string
	}{
		{70, 0.1, "074748f6f8f8154ea7a892732370862fc28e21fb2ba66e437ae6f8a8e43c2e4f"},
		{70, 1, "a6389e894a4809ac35f7da6d3114c60e87f6de257f1f0c23fb05f391bba647dc"},
		{65536, 0.1, "fb0be637beaecfb109884d763ecda91fdb1fe16f65a0530b84decad8a2305fca"},
		{65536, 1, "4f3e88e9091425fd53723f884371098fde49007c5740126ed2564ac71a2c7083"},
	} {
		o := NewOUEPacked(tc.d)
		src := ldprand.New(20)
		h := sha256.New()
		for u := 0; u < 16; u++ {
			r := o.Perturb(u*7919%tc.d, tc.eps, src)
			if len(r.Packed) != packedBytes(tc.d) {
				t.Fatalf("d=%d: payload of %d bytes, want %d", tc.d, len(r.Packed), packedBytes(tc.d))
			}
			h.Write(r.Packed)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("d=%d eps=%v: payload digest %s, the word-building Perturb wrote %s", tc.d, tc.eps, got, tc.want)
		}
	}
}

// drainByBitWalk is the plane drain flushInto's transpose replaced, kept as
// its reference: every set bit of plane i adds 2^i to its lane's counter.
func drainByBitWalk(planes []uint64, counts []int64) {
	for wi := 0; wi < len(planes)/8; wi++ {
		for i, plane := range planes[8*wi : 8*wi+8] {
			for ; plane != 0; plane &= plane - 1 {
				counts[wi<<6+bits.TrailingZeros64(plane)] += 1 << uint(i)
			}
		}
	}
}

// TestPackedDrainMatchesBitWalk drives the transposed drain against the
// set-bit walk over domains with and without a partial tail word, plane
// depths around every carry boundary, and densities from empty to full,
// into counters that already hold something: equal counters, zeroed planes.
func TestPackedDrainMatchesBitWalk(t *testing.T) {
	src := ldprand.New(20)
	for _, d := range []int{1, 63, 64, 65, 131, 4096} {
		for _, depth := range []int{1, 7, 8, 9, 247, 248, 255} {
			for _, density := range []float64{0, 0.02, 0.475, 1} {
				p := newPackedAccumulator(packedWords(d))
				for n := 0; n < depth; n++ {
					unary := make([]byte, d)
					for k := range unary {
						if src.Float64() < density {
							unary[k] = 1
						}
					}
					p.add(PackBits(unary))
				}
				got := make([]int64, d)
				for k := range got {
					got[k] = int64(src.Intn(1 << 40))
				}
				want := slices.Clone(got)
				p.foldPending() // so the planes hold all depth reports
				if p.depth != depth {
					t.Fatalf("d=%d: planes hold %d reports, want %d", d, p.depth, depth)
				}
				drainByBitWalk(p.planes, want)
				p.flushInto(got)
				if !slices.Equal(got, want) {
					t.Fatalf("d=%d depth=%d density=%v: transposed drain differs from the bit walk", d, depth, density)
				}
				if p.depth != 0 || slices.ContainsFunc(p.planes, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("d=%d depth=%d density=%v: drain left depth %d or set plane bits", d, depth, density, p.depth)
				}
			}
		}
	}
}
