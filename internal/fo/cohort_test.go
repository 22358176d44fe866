package fo

import (
	"fmt"
	"math"
	"testing"

	"ldpids/internal/ldprand"
)

// naiveOLHCEstimate is the O(n·d) reference semantics of cohort-hashed
// aggregation: for every report, scan the whole domain and count the
// elements whose bucket under the report's cohort seed matches the
// reported bucket — exactly what the OLH aggregator does, with the cohort
// seed in place of the per-user seed. The production cohortCore must be
// bit-identical to this.
func naiveOLHCEstimate(t *testing.T, o *OLHC, reports []Report, eps float64) []float64 {
	t.Helper()
	g := olhG(eps)
	e := math.Exp(eps)
	p := e / (e + float64(g) - 1)
	q := 1.0 / float64(g)
	counts := make([]int64, o.d)
	for _, r := range reports {
		if r.Kind != KindCohort {
			t.Fatalf("unexpected %s report", r.Kind)
		}
		seed := cohortSeed(int(r.Seed))
		for v := 0; v < o.d; v++ {
			if olhHash(seed, v, g) == r.Value {
				counts[v]++
			}
		}
	}
	est := make([]float64, o.d)
	finishInto(est, counts, len(reports), p, q)
	return est
}

func TestOLHCMatchesNaiveReference(t *testing.T) {
	// The O(1)-fold matrix aggregation must be bit-identical to the naive
	// O(n·d) per-report domain scan it replaces.
	src := ldprand.New(211)
	for _, eps := range []float64{0.5, 1.0, 2.5} {
		o := NewOLHC(37)
		reports := make([]Report, 400)
		for i := range reports {
			reports[i] = o.Perturb(i%37, eps, src)
		}
		got, err := o.Estimate(reports, eps)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveOLHCEstimate(t, o, reports, eps)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("eps=%v: estimate diverged at k=%d: matrix %v, naive %v",
					eps, k, got[k], want[k])
			}
		}
	}
}

func TestOLHCReportShape(t *testing.T) {
	src := ldprand.New(223)
	o := NewOLHC(50)
	g := olhG(1.0)
	seen := make(map[uint64]bool)
	for i := 0; i < 2000; i++ {
		r := o.Perturb(i%50, 1.0, src)
		if r.Kind != KindCohort {
			t.Fatalf("Perturb kind = %s, want cohort", r.Kind)
		}
		if r.Seed >= uint64(o.Cohorts()) {
			t.Fatalf("cohort %d outside [0,%d)", r.Seed, o.Cohorts())
		}
		if r.Value < 0 || r.Value >= g {
			t.Fatalf("bucket %d outside [0,%d)", r.Value, g)
		}
		if r.Size() != 8 {
			t.Fatalf("OLH-C report size %d, want 8", r.Size())
		}
		seen[r.Seed] = true
	}
	// 2000 draws over 128 cohorts: essentially every cohort must appear.
	if len(seen) < o.Cohorts()/2 {
		t.Fatalf("only %d of %d cohorts drawn", len(seen), o.Cohorts())
	}
}

func TestOLHCUnbiasedDefaultCohorts(t *testing.T) {
	// Mean estimate over repetitions converges to the truth at the default
	// cohort count. The tolerance leaves room for the O(1/√k)
	// cohort-sampling term, which does not average out across reps (the
	// cohort seeds are fixed) but is small at k = DefaultCohorts.
	// Frequencies are moderately concentrated, as in OLH-C's target regime
	// (large domains, spread-out mass): the bias term scales with
	// √(Σ_v f_v²), so a tiny domain with one dominant element would need a
	// looser bound — and GRR/OLH are the right oracles there anyway.
	src := ldprand.New(227)
	d := 64
	trueFreq := make([]float64, d)
	trueFreq[3] = 0.1
	rest := 0.9 / float64(d-1)
	for k := range trueFreq {
		if k != 3 {
			trueFreq[k] = rest
		}
	}
	o := NewOLHC(d)
	const n = 3000
	const reps = 40
	sum := make([]float64, d)
	for r := 0; r < reps; r++ {
		vals := synthValues(trueFreq, n, src)
		est, err := o.Estimate(perturbAll(o, vals, 1.0, src), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sum {
			sum[k] += est[k]
		}
	}
	for k := range sum {
		mean := sum[k] / reps
		if math.Abs(mean-trueFreq[k]) > 0.04 {
			t.Errorf("element %d mean estimate %.4f, want %.4f", k, mean, trueFreq[k])
		}
	}
}

func TestOLHCVarianceMatchesFormula(t *testing.T) {
	// Acceptance: the documented variance formula (the OLH approximation
	// 4e^ε/(n(e^ε-1)^2), carried over because the GRR-over-g core is
	// identical) matches the empirical variance of OLH-C estimates within
	// tolerance.
	src := ldprand.New(229)
	d := 32
	eps := 1.0
	trueFreq := make([]float64, d)
	for k := range trueFreq {
		trueFreq[k] = 1.0 / float64(d)
	}
	o := NewOLHC(d)
	const n = 1000
	const reps = 300
	ests := make([][]float64, 0, reps)
	for r := 0; r < reps; r++ {
		vals := synthValues(trueFreq, n, src)
		est, err := o.Estimate(perturbAll(o, vals, eps, src), eps)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, est)
	}
	want := o.VarianceApprox(eps, n)
	for k := 0; k < d; k++ {
		mean, m2 := 0.0, 0.0
		for _, e := range ests {
			mean += e[k]
		}
		mean /= reps
		for _, e := range ests {
			m2 += (e[k] - mean) * (e[k] - mean)
		}
		empirical := m2/(reps-1) - trueFreq[k]*(1-trueFreq[k])/float64(n)
		if math.Abs(empirical-want)/want > 0.35 {
			t.Errorf("elem %d: empirical var %.3e, formula %.3e", k, empirical, want)
		}
	}
}

func TestOLHCAggregatorRejects(t *testing.T) {
	o := NewOLHC(10)
	agg, err := o.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := olhG(1.0)
	if err := agg.Add(Report{Kind: KindValue, Value: 1}); err == nil {
		t.Error("wrong-kind report accepted")
	}
	if err := agg.Add(Report{Kind: KindCohort, Value: 0, Seed: uint64(o.Cohorts())}); err == nil {
		t.Error("out-of-range cohort accepted")
	}
	if err := agg.Add(Report{Kind: KindCohort, Value: g, Seed: 0}); err == nil {
		t.Error("out-of-range bucket accepted")
	}
	if err := agg.Add(Report{Kind: KindCohort, Value: -1, Seed: 0}); err == nil {
		t.Error("negative bucket accepted")
	}
	if _, err := o.NewAggregator(0); err != ErrBadEpsilon {
		t.Errorf("zero eps: got %v, want ErrBadEpsilon", err)
	}
	if _, err := agg.Estimate(); err != ErrNoReports {
		t.Errorf("empty estimate: got %v, want ErrNoReports", err)
	}
}

func TestOLHCRepeatedEstimatesIdentical(t *testing.T) {
	// The bucket table is cached on the oracle across aggregators and
	// rounds; estimates must not depend on who built it first.
	src := ldprand.New(233)
	o := NewOLHC(20)
	reports := make([]Report, 150)
	for i := range reports {
		reports[i] = o.Perturb(i%20, 1.0, src)
	}
	first, err := o.Estimate(reports, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.Estimate(reports, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("repeated estimate diverged at k=%d", k)
		}
	}
}

// benchFold measures the server-side fold of n pre-perturbed reports.
func benchFold(b *testing.B, o Oracle, d int) {
	src := ldprand.New(1)
	const n = 256
	reports := make([]Report, n)
	for i := range reports {
		reports[i] = o.Perturb(i%d, 1.0, src)
	}
	agg, err := o.NewAggregator(1.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := agg.Add(reports[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOLHFold64k(b *testing.B)  { benchFold(b, NewOLH(65536), 65536) }
func BenchmarkOLHCFold64k(b *testing.B) { benchFold(b, NewOLHC(65536), 65536) }

// epsForG returns a budget whose hashing range olhG(eps) is exactly g.
func epsForG(g int) float64 { return math.Log(float64(g) - 0.5) }

var benchEstimate []float64

// BenchmarkOLHCEstimate64k measures one warm per-round Estimate at
// d=65536, k=DefaultCohorts: the bucket table for g is built before the
// timer starts, so this is what a stream pays every timestamp. g=3 is
// ε=1 (population division), g=2 is ε/w (budget division).
func BenchmarkOLHCEstimate64k(b *testing.B) {
	for _, g := range []int{2, 3, 21, 300} {
		g := g
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			const d = 65536
			eps := epsForG(g)
			if olhG(eps) != g {
				b.Fatalf("olhG(%v) = %d, want %d", eps, olhG(eps), g)
			}
			o := NewOLHC(d)
			agg, err := o.NewAggregator(eps)
			if err != nil {
				b.Fatal(err)
			}
			src := ldprand.New(1)
			for u := 0; u < 4096; u++ {
				if err := agg.Add(o.Perturb(u%d, eps, src)); err != nil {
					b.Fatal(err)
				}
			}
			if benchEstimate, err = agg.Estimate(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchEstimate, err = agg.Estimate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOLHCTableBuild64k measures the one-time bucket-table build a
// fresh oracle pays on its first Estimate at a new g.
func BenchmarkOLHCTableBuild64k(b *testing.B) {
	b.Run("g=3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewOLHC(65536).bucketTable(3)
		}
	})
}
