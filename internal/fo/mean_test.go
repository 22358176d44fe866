package fo

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"unsafe"

	"ldpids/internal/ldprand"
)

// numericReport is a KindNumeric report carrying x.
func numericReport(x float64) Report { return Report{Kind: KindNumeric, Seed: math.Float64bits(x)} }

// exactMean is the correctly rounded mean of xs, computed in math/big.
func exactMean(xs []float64) float64 {
	sum := new(big.Rat)
	for _, x := range xs {
		sum.Add(sum, new(big.Rat).SetFloat64(x))
	}
	mean, _ := sum.Quo(sum, new(big.Rat).SetInt64(int64(len(xs)))).Float64()
	return mean
}

// TestMeanExactSum folds Duchi and Piecewise outputs plus the extremes an
// aggregator must accept — ±C, ±0, subnormals, the smallest normal, values
// an ulp inside C — under random permutations and shard splits. Every
// layout must export identical counters, and Estimate must be bit-equal to
// the math/big correctly rounded mean.
func TestMeanExactSum(t *testing.T) {
	o := NewMean()
	for _, eps := range []float64{0.05, 0.5, 1, 3, 9} {
		src := ldprand.New(uint64(eps*1000) + 7)
		c := BestPerturber(eps).Bound(eps)
		xs := []float64{c, -c, 0, math.Copysign(0, -1), 5e-324, -5e-324,
			math.Nextafter(0x1p-1022, 0), -0x1p-1022, math.Nextafter(c, 0), -math.Nextafter(c, 0), 1, -1}
		for i := 0; i < 400; i++ {
			p := []Perturber{Duchi{}, Piecewise{}}[i%2]
			if p.Bound(eps) > c {
				p = BestPerturber(eps) // the other one's outputs exceed this budget's C
			}
			xs = append(xs, p.Perturb(2*src.Float64()-1, eps, src))
		}
		want := exactMean(xs)
		var reference CounterFrame
		for trial := 0; trial < 5; trial++ {
			perm := src.Perm(len(xs))
			k := 1 + src.Intn(4)
			shards := make([][]Report, k)
			for _, j := range perm {
				s := src.Intn(k)
				shards[s] = append(shards[s], numericReport(xs[j]))
			}
			frames := make([]CounterFrame, k)
			for i, shard := range shards {
				frames[i] = foldShard(t, o, eps, shard)
			}
			merged := mergeFrames(t, o, eps, frames)
			if trial == 0 {
				reference = merged
			} else if !framesEqual(merged, reference) {
				t.Fatalf("eps=%v trial %d: %d shards in permuted order export different counters", eps, trial, k)
			}
			agg, err := o.NewAggregator(eps)
			if err != nil {
				t.Fatal(err)
			}
			if err := MergeCounters(agg, merged); err != nil {
				t.Fatal(err)
			}
			got, err := agg.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
				t.Fatalf("eps=%v trial %d: Estimate %v, correctly rounded mean %v", eps, trial, got, want)
			}
		}
		for _, v := range reference.Counts {
			if v < 0 {
				t.Fatalf("eps=%v: negative counter %d", eps, v)
			}
		}
	}
}

// TestMeanRefusesHostileValues: non-finite values and anything beyond C(ε)
// are refused before they touch a counter.
func TestMeanRefusesHostileValues(t *testing.T) {
	const eps = 1.0
	c := BestPerturber(eps).Bound(eps)
	agg, err := NewMean().NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(numericReport(0.25)); err != nil {
		t.Fatal(err)
	}
	before, err := ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Report{
		numericReport(math.NaN()), numericReport(math.Inf(1)), numericReport(math.Inf(-1)),
		numericReport(1e300), numericReport(-1e300), numericReport(math.Nextafter(c, 2*c)),
		{Kind: KindValue, Value: 0},
	} {
		if err := agg.Add(r); err == nil {
			t.Errorf("accepted %s report %v", r.Kind, math.Float64frombits(r.Seed))
		}
	}
	after, err := ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	if !framesEqual(before, after) {
		t.Fatal("a refused report changed the counters")
	}
	// The other aggregators refuse numeric reports.
	grr, err := NewGRR(4).NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := grr.Add(numericReport(0.25)); err == nil {
		t.Error("GRR accepted a numeric report")
	}
}

// TestMeanRefusesUnboundedBudgets: a budget whose C(ε) or worst variance
// is not finite is refused at NewAggregator and Reset — at ε = 1500,
// Piecewise's C is Inf/Inf, which would release NaN.
func TestMeanRefusesUnboundedBudgets(t *testing.T) {
	o := NewMean()
	agg, err := o.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1500, 1e-300, 0, math.NaN(), math.Inf(1)} {
		if _, err := o.NewAggregator(eps); !errors.Is(err, ErrBadEpsilon) {
			t.Errorf("NewAggregator(%v) = %v, want ErrBadEpsilon", eps, err)
		}
		if err := Reset(agg, eps); !errors.Is(err, ErrBadEpsilon) {
			t.Errorf("Reset(%v) = %v, want ErrBadEpsilon", eps, err)
		}
	}
}

// TestMeanEstimatesTheMean: the oracle's estimate of perturbed values
// tracks their true mean, with the variance VarianceApprox promises.
func TestMeanEstimatesTheMean(t *testing.T) {
	o := NewMean()
	src := ldprand.New(5)
	const n = 40000
	for _, eps := range []float64{0.5, 2} {
		vals := make([]float64, n)
		reports := make([]Report, n)
		for i := range reports {
			vals[i] = math.Sin(float64(i)) * 0.8
			reports[i] = o.PerturbValue(vals[i], eps, src)
		}
		est, err := o.Estimate(reports, eps)
		if err != nil {
			t.Fatal(err)
		}
		if sd := math.Sqrt(o.VarianceApprox(eps, n)); math.Abs(est[0]-exactMean(vals)) > 5*sd {
			t.Errorf("eps=%v: estimate %v, true mean %v (sd %v)", eps, est[0], exactMean(vals), sd)
		}
	}
}

// TestReportSizeUnchanged pins fo.Report's size: every hot path copies it,
// and the numeric value rides in Seed rather than a new field.
func TestReportSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(Report{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(Report{}) = %d, want 72", got)
	}
}

// FuzzMeanAdd folds arbitrary 64-bit payloads as numeric reports: the
// aggregator refuses every non-finite value or one beyond C(ε), and a
// single accepted value estimates to itself exactly (−0 to +0).
func FuzzMeanAdd(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 5e-324, math.NaN(), math.Inf(-1), 1e300, 2.1639534137386525} {
		f.Add(math.Float64bits(x), 1.0)
	}
	f.Fuzz(func(t *testing.T, bits uint64, eps float64) {
		agg, err := NewMean().NewAggregator(eps)
		if err != nil {
			return
		}
		x := math.Float64frombits(bits)
		if err := agg.Add(Report{Kind: KindNumeric, Seed: bits}); err != nil {
			if math.Abs(x) <= BestPerturber(eps).Bound(eps) {
				t.Fatalf("refused %v within C(%v): %v", x, eps, err)
			}
			return
		}
		if !(math.Abs(x) <= BestPerturber(eps).Bound(eps)) {
			t.Fatalf("accepted %v beyond C(%v)", x, eps)
		}
		est, err := agg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if want := x + 0; math.Float64bits(est[0]) != math.Float64bits(want) {
			t.Fatalf("one report of %v estimates %v", x, est[0])
		}
		if f, err := ExportCounters(agg); err != nil || f.Validate() != nil {
			t.Fatalf("exported %+v (%v)", f, err)
		}
	})
}
