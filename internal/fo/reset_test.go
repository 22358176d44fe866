package fo

import (
	"errors"
	"math"
	"slices"
	"testing"

	"ldpids/internal/ldprand"
)

// resetRounds is the script TestResetMatchesFresh re-arms one aggregator
// through. Rounds that skip Estimate are failed rounds: their partial
// counts — and, for packed oracles, reports still buffered in the batch
// (n mod 8 ≠ 0) or folded into undrained planes — must not survive the
// next Reset. The budgets move OLH-C's hashing range g 3 → 2 → 13 → 3.
var resetRounds = []struct {
	eps      float64
	n        int
	estimate bool
}{
	{1, 2*maxPlaneDepth + 45, true}, // planes drained mid-round, some pending at Estimate
	{0.5, 21, false},                // failed: 21 packed reports, 5 still buffered
	{2.5, 130, true},
	{2.5, 59, true}, // re-armed after the merged (terminal) Estimate
	{1, 203, false},
	{1, 9, true},
}

// resetCase is one aggregator shape the reset tests re-arm.
type resetCase struct {
	name    string
	stripes int // 0: the oracle's plain aggregator
}

var resetCases = []resetCase{{"plain", 0}, {"striped-1", 1}, {"striped-3", 3}}

// newResetAggregator builds tc's aggregator for o at budget eps.
func newResetAggregator(t testing.TB, o Oracle, tc resetCase, eps float64) Aggregator {
	t.Helper()
	var agg Aggregator
	var err error
	if tc.stripes == 0 {
		agg, err = o.NewAggregator(eps)
	} else {
		agg, err = NewStripedAggregator(o, eps, tc.stripes)
	}
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// sameState fails unless got and want export the same counters and finish
// to bit-identical estimates.
func sameState(t *testing.T, got, want Aggregator) {
	t.Helper()
	gf, err := ExportCounters(got)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := ExportCounters(want)
	if err != nil {
		t.Fatal(err)
	}
	if gf.Shape != wf.Shape || gf.N != wf.N || gf.K != wf.K || gf.G != wf.G || !slices.Equal(gf.Counts, wf.Counts) {
		t.Fatalf("reset aggregator exports %s N=%d %dx%d, a fresh one %s N=%d %dx%d (counters equal: %v)",
			gf.Shape, gf.N, gf.K, gf.G, wf.Shape, wf.N, wf.K, wf.G, slices.Equal(gf.Counts, wf.Counts))
	}
	ge, err := got.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	we, err := want.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range we {
		if math.Float64bits(ge[k]) != math.Float64bits(we[k]) {
			t.Fatalf("estimate[%d] = %v after Reset, %v fresh", k, ge[k], we[k])
		}
	}
}

// TestResetMatchesFresh re-arms one aggregator per registered oracle —
// plain, and striped over one and three stripes — with Reset before every
// round of resetRounds, and requires each round's exported counters and
// Estimate to be bit-equal to those of a fresh NewAggregator fed the same
// reports. A budget NewAggregator refuses, Reset refuses with
// ErrBadEpsilon, leaving the aggregator as it was.
func TestResetMatchesFresh(t *testing.T) {
	const d = 70 // a partial tail word for the packed planes
	for _, name := range Names() {
		for _, tc := range resetCases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				o, err := New(name, d)
				if err != nil {
					t.Fatal(err)
				}
				src := ldprand.New(61)
				agg := newResetAggregator(t, o, tc, resetRounds[0].eps)
				for i, rd := range resetRounds {
					if i > 0 {
						if err := Reset(agg, rd.eps); err != nil {
							t.Fatalf("round %d: Reset: %v", i, err)
						}
					}
					if agg.Reports() != 0 {
						t.Fatalf("round %d: re-armed aggregator holds %d reports", i, agg.Reports())
					}
					fresh, err := o.NewAggregator(rd.eps)
					if err != nil {
						t.Fatal(err)
					}
					for u := 0; u < rd.n; u++ {
						r := o.Perturb(u%d, rd.eps, src)
						if err := agg.Add(r); err != nil {
							t.Fatalf("round %d: %v", i, err)
						}
						if err := fresh.Add(r); err != nil {
							t.Fatal(err)
						}
					}
					if agg.Reports() != rd.n {
						t.Fatalf("round %d: %d reports folded, want %d", i, agg.Reports(), rd.n)
					}
					if !rd.estimate {
						// A failed round: nothing reads its counters before
						// the next Reset.
						if u, ok := agg.(*unaryAggregator); ok && u.packed != nil && u.packed.nbuf == 0 {
							t.Fatalf("round %d left no packed report buffered", i)
						}
						continue
					}
					sameState(t, agg, fresh)
				}

				before, err := agg.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 800} {
					if _, err := o.NewAggregator(eps); err == nil {
						continue // OUE and SUE hold at ε = 800
					}
					if err := Reset(agg, eps); !errors.Is(err, ErrBadEpsilon) {
						t.Fatalf("Reset(eps=%v) = %v, want ErrBadEpsilon", eps, err)
					}
				}
				after, err := agg.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(after, before) {
					t.Fatal("a refused Reset changed the aggregator")
				}
			})
		}
	}
}

// foreignAgg is an Aggregator from outside the built-in set.
type foreignAgg struct{ Aggregator }

// TestEstimateInto: the estimate lands in dst when it has room — equal to
// Estimate, aliasing dst — grows a new slice when it has not, and comes from
// Estimate for aggregators fo did not build, which Reset refuses.
func TestEstimateInto(t *testing.T) {
	const d = 70
	for _, name := range Names() {
		for _, tc := range resetCases {
			o, err := New(name, d)
			if err != nil {
				t.Fatal(err)
			}
			agg := newResetAggregator(t, o, tc, 1)
			if _, err := EstimateInto(agg, make([]float64, d)); !errors.Is(err, ErrNoReports) {
				t.Fatalf("%s/%s: EstimateInto before any Add = %v, want ErrNoReports", name, tc.name, err)
			}
			if err := Reset(agg, 1); err != nil { // a striped Estimate is terminal until Reset
				t.Fatal(err)
			}
			src := ldprand.New(67)
			for u := 0; u < 50; u++ {
				if err := agg.Add(o.Perturb(u%d, 1, src)); err != nil {
					t.Fatal(err)
				}
			}
			want, err := agg.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, 3, d+5)
			got, err := EstimateInto(agg, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) || &got[0] != &dst[0] {
				t.Fatalf("%s/%s: EstimateInto did not finish Estimate's values into dst", name, tc.name)
			}
			if short, err := EstimateInto(agg, make([]float64, d-1)); err != nil || !slices.Equal(short, want) {
				t.Fatalf("%s/%s: EstimateInto a short dst = %v", name, tc.name, err)
			}
			if other, err := EstimateInto(foreignAgg{agg}, dst); err != nil || !slices.Equal(other, want) {
				t.Fatalf("%s/%s: EstimateInto a foreign aggregator = %v", name, tc.name, err)
			}
			if err := Reset(foreignAgg{agg}, 1); err == nil {
				t.Fatalf("%s/%s: Reset accepted a foreign aggregator", name, tc.name)
			}
		}
	}
}

// TestResetRoundAllocs pins a re-armed round at zero allocations at
// d = 65536: Reset, the folds and EstimateInto a kept scratch slice, for
// the two-stripe packed aggregator a gateway or replica folds into and the
// plain GRR aggregator a coordinator merges frames into.
func TestResetRoundAllocs(t *testing.T) {
	const d, eps = 65536, 1.0
	for _, tc := range []struct {
		name    string
		o       Oracle
		stripes int
	}{
		{"OUE-packed/2-stripes", NewOUEPacked(d), 2},
		{"GRR", NewGRR(d), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			agg := newResetAggregator(t, tc.o, resetCase{stripes: tc.stripes}, eps)
			src := ldprand.New(71)
			reports := make([]Report, 37)
			for u := range reports {
				reports[u] = tc.o.Perturb(u*1777%d, eps, src)
			}
			scratch := make([]float64, d)
			round := func() {
				if err := Reset(agg, eps); err != nil {
					t.Fatal(err)
				}
				for _, r := range reports {
					if err := agg.Add(r); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := EstimateInto(agg, scratch); err != nil {
					t.Fatal(err)
				}
			}
			round() // the packed accumulators are allocated on first use
			if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
				t.Fatalf("a re-armed round allocates %v times, want 0", allocs)
			}
		})
	}
}

// BenchmarkRoundReset64k is one population-division round's aggregator
// lifetime at d = 65536 on two stripes — obtain it, fold 64 reports,
// EstimateInto a kept scratch slice — with the aggregator re-armed by Reset
// ("reset", what collect.Env and cluster.Replica do) against a fresh
// NewStripedAggregator per round ("new", what they did before).
//
//	go test -run '^$' -bench BenchmarkRoundReset64k -benchmem ./internal/fo
func BenchmarkRoundReset64k(b *testing.B) {
	const d, eps, stripes = 65536, 1.0, 2
	for _, o := range []Oracle{NewGRR(d), NewOUEPacked(d)} {
		src := ldprand.New(73)
		reports := make([]Report, 64)
		for u := range reports {
			reports[u] = o.Perturb(u*1777%d, eps, src)
		}
		scratch := make([]float64, d)
		round := func(b *testing.B, agg *StripedAggregator) {
			for u, r := range reports {
				if err := agg.AddStripe(u%stripes, r); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := EstimateInto(agg, scratch); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(o.Name()+"/reset", func(b *testing.B) {
			agg, err := NewStripedAggregator(o, eps, stripes)
			if err != nil {
				b.Fatal(err)
			}
			round(b, agg) // the first round allocates the packed accumulators
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Reset(agg, eps); err != nil {
					b.Fatal(err)
				}
				round(b, agg)
			}
		})
		b.Run(o.Name()+"/new", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				agg, err := NewStripedAggregator(o, eps, stripes)
				if err != nil {
					b.Fatal(err)
				}
				round(b, agg)
			}
		})
	}
}
