package fo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

// perturbAll perturbs n synthetic users drawn from trueFreq and returns
// their reports.
func perturbAll(o Oracle, trueVals []int, eps float64, src *ldprand.Source) []Report {
	reports := make([]Report, len(trueVals))
	for i, v := range trueVals {
		reports[i] = o.Perturb(v, eps, src)
	}
	return reports
}

// synthValues draws n values from the given frequency vector.
func synthValues(freq []float64, n int, src *ldprand.Source) []int {
	cdf := make([]float64, len(freq))
	acc := 0.0
	for i, f := range freq {
		acc += f
		cdf[i] = acc
	}
	vals := make([]int, n)
	for i := range vals {
		u := src.Float64()
		for k, c := range cdf {
			if u <= c {
				vals[i] = k
				break
			}
		}
	}
	return vals
}

func oracles(d int) []Oracle {
	// OLH-C uses an oversized cohort count here: these tests run tiny
	// domains with concentrated frequencies, where the O(1/√k)
	// cohort-sampling term is at its largest relative to the tight shared
	// tolerances. The default cohort count is exercised by the dedicated
	// OLH-C tests in cohort_test.go.
	return []Oracle{
		NewGRR(d), NewOUE(d), NewSUE(d), NewOLH(d),
		NewOLHCCohorts(d, 1024), NewOUEPacked(d), NewSUEPacked(d),
	}
}

func TestUnbiasedness(t *testing.T) {
	// Average of estimates over repetitions must converge to the truth.
	src := ldprand.New(101)
	d := 5
	trueFreq := []float64{0.4, 0.3, 0.15, 0.1, 0.05}
	const n = 2000
	const reps = 60
	for _, o := range oracles(d) {
		sum := make([]float64, d)
		for r := 0; r < reps; r++ {
			vals := synthValues(trueFreq, n, src)
			est, err := o.Estimate(perturbAll(o, vals, 1.0, src), 1.0)
			if err != nil {
				t.Fatalf("%s: %v", o.Name(), err)
			}
			for k := range sum {
				sum[k] += est[k]
			}
		}
		for k := range sum {
			mean := sum[k] / reps
			if math.Abs(mean-trueFreq[k]) > 0.03 {
				t.Errorf("%s: element %d mean estimate %.4f, want %.4f",
					o.Name(), k, mean, trueFreq[k])
			}
		}
	}
}

func TestEstimateSumsToOne(t *testing.T) {
	// GRR and OLH estimates sum to ~1 structurally; unary schemes only in
	// expectation. Check within loose statistical bounds for all.
	src := ldprand.New(103)
	d := 8
	trueFreq := make([]float64, d)
	for i := range trueFreq {
		trueFreq[i] = 1.0 / float64(d)
	}
	for _, o := range oracles(d) {
		vals := synthValues(trueFreq, 5000, src)
		est, err := o.Estimate(perturbAll(o, vals, 1.5, src), 1.5)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, e := range est {
			sum += e
		}
		if math.Abs(sum-1) > 0.25 {
			t.Errorf("%s: estimate sum %.4f far from 1", o.Name(), sum)
		}
	}
}

func TestGRRProbabilities(t *testing.T) {
	g := NewGRR(4)
	p, q := g.probs(1.0)
	e := math.E
	wantP := e / (e + 3)
	wantQ := 1 / (e + 3)
	if math.Abs(p-wantP) > 1e-12 || math.Abs(q-wantQ) > 1e-12 {
		t.Fatalf("probs (%v,%v) want (%v,%v)", p, q, wantP, wantQ)
	}
	if math.Abs(p/q-e) > 1e-9 {
		t.Fatalf("p/q = %v violates e^eps", p/q)
	}
}

func TestGRRPerturbationRates(t *testing.T) {
	// Empirical keep-rate must match p.
	src := ldprand.New(107)
	g := NewGRR(6)
	eps := 1.2
	p, _ := g.probs(eps)
	const n = 100000
	kept := 0
	for i := 0; i < n; i++ {
		if g.Perturb(3, eps, src).Value == 3 {
			kept++
		}
	}
	got := float64(kept) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("empirical keep rate %v, want %v", got, p)
	}
}

func TestGRRPerturbOthersUniform(t *testing.T) {
	src := ldprand.New(109)
	g := NewGRR(5)
	eps := 0.5
	counts := make([]int, 5)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Perturb(0, eps, src).Value]++
	}
	// Values 1..4 should be hit roughly equally.
	others := counts[1:]
	mean := 0.0
	for _, c := range others {
		mean += float64(c)
	}
	mean /= 4
	for k, c := range others {
		if math.Abs(float64(c)-mean) > 5*math.Sqrt(mean) {
			t.Fatalf("non-true value %d count %d deviates from mean %v", k+1, c, mean)
		}
	}
}

func TestVarianceMatchesEmpirical(t *testing.T) {
	// Closed-form Variance must match the empirical variance of estimates.
	src := ldprand.New(113)
	d := 4
	trueFreq := []float64{0.5, 0.25, 0.15, 0.10}
	const n = 1000
	const reps = 300
	eps := 1.0
	for _, o := range oracles(d) {
		var ests [][]float64
		for r := 0; r < reps; r++ {
			vals := synthValues(trueFreq, n, src)
			est, err := o.Estimate(perturbAll(o, vals, eps, src), eps)
			if err != nil {
				t.Fatal(err)
			}
			ests = append(ests, est)
		}
		for k := 0; k < d; k++ {
			mean, m2 := 0.0, 0.0
			for _, e := range ests {
				mean += e[k]
			}
			mean /= reps
			for _, e := range ests {
				m2 += (e[k] - mean) * (e[k] - mean)
			}
			empirical := m2 / (reps - 1)
			// Empirical variance also includes sampling variance of the
			// underlying data (≈ f(1-f)/n), subtract it.
			sampling := trueFreq[k] * (1 - trueFreq[k]) / float64(n)
			empirical -= sampling
			want := o.Variance(eps, n, trueFreq[k])
			if want <= 0 {
				t.Fatalf("%s: non-positive variance %v", o.Name(), want)
			}
			if math.Abs(empirical-want)/want > 0.35 {
				t.Errorf("%s elem %d: empirical var %.3e, formula %.3e",
					o.Name(), k, empirical, want)
			}
		}
	}
}

func TestVarianceApproxCloseToExactSmallF(t *testing.T) {
	g := NewGRR(10)
	exact := g.Variance(1.0, 10000, 0.01)
	approx := g.VarianceApprox(1.0, 10000)
	if approx > exact {
		t.Fatalf("approx %v exceeds exact %v with positive fk", approx, exact)
	}
	if (exact-approx)/exact > 0.5 {
		t.Fatalf("approx %v too far from exact %v at fk=0.01", approx, exact)
	}
}

func TestVarianceMonotoneInEpsAndN(t *testing.T) {
	for _, o := range oracles(8) {
		v1 := o.VarianceApprox(0.5, 1000)
		v2 := o.VarianceApprox(1.0, 1000)
		v3 := o.VarianceApprox(2.0, 1000)
		if !(v1 > v2 && v2 > v3) {
			t.Errorf("%s: variance not decreasing in eps: %v %v %v", o.Name(), v1, v2, v3)
		}
		w1 := o.VarianceApprox(1.0, 100)
		w2 := o.VarianceApprox(1.0, 1000)
		if !(w1 > w2) {
			t.Errorf("%s: variance not decreasing in n: %v %v", o.Name(), w1, w2)
		}
	}
}

func TestVarianceInfiniteAtZeroUsers(t *testing.T) {
	for _, o := range oracles(4) {
		if !math.IsInf(o.VarianceApprox(1.0, 0), 1) {
			t.Errorf("%s: variance at n=0 should be +Inf", o.Name())
		}
	}
}

func TestPopulationVsBudgetDivision(t *testing.T) {
	// The core inequality behind the paper (Theorem 6.1):
	// V(eps, N/w) < V(eps/w, N) for all tested oracles and w>1.
	for _, o := range oracles(16) {
		for _, w := range []int{2, 5, 20, 50} {
			N := 100000
			pop := o.VarianceApprox(1.0, N/w)
			bud := o.VarianceApprox(1.0/float64(w), N)
			if pop >= bud {
				t.Errorf("%s w=%d: population division variance %v not below budget division %v",
					o.Name(), w, pop, bud)
			}
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	g := NewGRR(3)
	if _, err := g.Estimate(nil, 1.0); err != ErrNoReports {
		t.Fatalf("want ErrNoReports, got %v", err)
	}
	if _, err := g.Estimate([]Report{{Value: 0}}, 0); err != ErrBadEpsilon {
		t.Fatalf("want ErrBadEpsilon, got %v", err)
	}
	if _, err := g.Estimate([]Report{{Value: 99}}, 1.0); err == nil {
		t.Fatal("out-of-domain report not rejected")
	}
	u := NewOUE(3)
	if _, err := u.Estimate([]Report{{Kind: KindUnary, Bits: []byte{1}}}, 1.0); err == nil {
		t.Fatal("short unary report not rejected")
	}
	if _, err := u.Estimate([]Report{{Kind: KindValue, Value: 1}}, 1.0); err == nil {
		t.Fatal("wrong-kind report not rejected by unary aggregation")
	}
	o := NewOLH(3)
	if _, err := o.Estimate([]Report{{Kind: KindValue, Value: 0}}, 1.0); err == nil {
		t.Fatal("non-hash report not rejected by OLH aggregation")
	}
}

// TestBadBudgetsAreRefused pins the loud numeric failure: every oracle's
// NewAggregator refuses NaN, ±Inf and non-positive budgets, and any budget
// whose (p, q) cannot finish an estimate — e^ε overflowing to p = NaN (GRR,
// OLH, OLH-C from ε ≈ 710), or rounding to 1 so that p = q — instead of
// releasing NaN with a nil error. Budgets that are merely huge stay legal.
func TestBadBudgetsAreRefused(t *testing.T) {
	for _, o := range oracles(16) {
		for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1e-17} {
			if _, err := o.NewAggregator(eps); err != ErrBadEpsilon {
				t.Errorf("%s: NewAggregator(%v) = %v, want ErrBadEpsilon", o.Name(), eps, err)
			}
		}
		agg, err := o.NewAggregator(710)
		switch o.(type) {
		case *OUE, *SUE: // p and q stay finite: q is 0 (OUE) or e^-355 (SUE)
			if err != nil {
				t.Errorf("%s: NewAggregator(710) = %v, want an aggregator", o.Name(), err)
			}
		default:
			if err != ErrBadEpsilon {
				t.Errorf("%s: NewAggregator(710) = %v, %v, want ErrBadEpsilon", o.Name(), agg, err)
			}
		}
	}
}

// TestUnaryPerturbTinyFlipProbability: once q < 2⁻⁵³, log(1-q) is exactly
// 0 and the geometric skip used to divide by it and index with int(-Inf)
// (OUE from ε ≈ 37, SUE from ε ≈ 74). Such a device flips nothing: its
// report is the true bit or, with probability 1-p, no bit, and the server
// folds a round of them into finite estimates.
func TestUnaryPerturbTinyFlipProbability(t *testing.T) {
	const d = 16
	src := ldprand.New(40)
	for _, tc := range []struct {
		o   Oracle
		eps float64
	}{
		{NewOUE(d), 40}, {NewOUEPacked(d), 40}, {NewSUE(d), 80}, {NewSUEPacked(d), 80},
		{NewOUEPacked(d), 800}, {NewSUE(d), 1400},
	} {
		agg, err := tc.o.NewAggregator(tc.eps)
		if err != nil {
			t.Fatalf("%s eps=%v: %v", tc.o.Name(), tc.eps, err)
		}
		for u := 0; u < 64; u++ {
			v := u % d
			r := tc.o.Perturb(v, tc.eps, src)
			set := r.Bits
			if r.Kind == KindPacked {
				set = UnpackBits(r.Packed, d)
			}
			for k, b := range set {
				if b != 0 && k != v {
					t.Fatalf("%s eps=%v: value %d flipped bit %d", tc.o.Name(), tc.eps, v, k)
				}
			}
			if err := agg.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		est, err := agg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range est {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s eps=%v: estimate[%d] = %v", tc.o.Name(), tc.eps, k, x)
			}
		}
	}
}

func TestPerturbPanicsOutOfDomain(t *testing.T) {
	src := ldprand.New(1)
	for _, o := range oracles(4) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-domain Perturb did not panic", o.Name())
				}
			}()
			o.Perturb(4, 1.0, src)
		}()
	}
}

func TestNewRegistry(t *testing.T) {
	names := Names()
	want := []string{"GRR", "OUE", "SUE", "OLH", "OLH-C", "OUE-packed", "SUE-packed"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
	}
	// Every canonical name dispatches, in every case variant, to an oracle
	// that reports the canonical name back.
	for _, name := range names {
		for _, alias := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			o, err := New(alias, 5)
			if err != nil || o == nil {
				t.Fatalf("New(%q): %v", alias, err)
			}
			if o.Name() != name {
				t.Fatalf("New(%q).Name() = %q, want %q", alias, o.Name(), name)
			}
			if o.Domain() != 5 {
				t.Fatalf("New(%q) domain %d", alias, o.Domain())
			}
		}
	}
	if _, err := New("nope", 5); err == nil {
		t.Fatal("unknown oracle accepted")
	} else if !strings.Contains(err.Error(), "OLH-C") {
		t.Fatalf("unknown-oracle error %q does not list the known names", err)
	}
}

func TestBestSelection(t *testing.T) {
	// Small domain: GRR. Large domain: OUE.
	if o := Best(3, 1.0); o.Name() != "GRR" {
		t.Fatalf("Best(3, 1.0) = %s, want GRR", o.Name())
	}
	if o := Best(500, 1.0); o.Name() != "OUE" {
		t.Fatalf("Best(500, 1.0) = %s, want OUE", o.Name())
	}
	// Best must indeed have lower variance.
	for _, d := range []int{3, 10, 100, 500} {
		for _, eps := range []float64{0.5, 1, 2} {
			best := Best(d, eps)
			var other Oracle
			if best.Name() == "GRR" {
				other = NewOUE(d)
			} else {
				other = NewGRR(d)
			}
			if best.VarianceApprox(eps, 1000) > other.VarianceApprox(eps, 1000)*1.01 {
				t.Errorf("Best(%d, %v) = %s has higher variance than %s",
					d, eps, best.Name(), other.Name())
			}
		}
	}
}

func TestOLHHashStability(t *testing.T) {
	// Same (seed, value, g) must always map to the same bucket, and the
	// distribution over buckets must be near-uniform.
	h1 := olhHash(12345, 7, 8)
	h2 := olhHash(12345, 7, 8)
	if h1 != h2 {
		t.Fatal("olhHash not deterministic")
	}
	counts := make([]int, 8)
	for seed := uint64(1); seed <= 80000; seed++ {
		counts[olhHash(seed, 3, 8)]++
	}
	want := 10000.0
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d non-uniform", b, c)
		}
	}
}

func TestReportSize(t *testing.T) {
	if (Report{Kind: KindValue, Value: 3}).Size() != 4 {
		t.Fatal("categorical report size")
	}
	if (Report{Kind: KindUnary, Bits: make([]byte, 10)}).Size() != 14 {
		t.Fatal("unary report size")
	}
	if (Report{Kind: KindPacked, Packed: make([]byte, 16)}).Size() != 20 {
		t.Fatal("packed unary report size")
	}
	if (Report{Kind: KindHash, Value: 2, Seed: 9}).Size() != 12 {
		t.Fatal("OLH report size")
	}
	// The kind is authoritative: an OLH report whose random per-user seed
	// happens to be 0 still costs 12 bytes (the pre-Kind format inferred
	// "categorical" from Seed == 0 and undercounted it as 4).
	if (Report{Kind: KindHash, Value: 2, Seed: 0}).Size() != 12 {
		t.Fatal("OLH report with zero seed misclassified")
	}
	// Cohort reports carry a small public cohort index instead of an 8-byte
	// private seed, so they are cheaper on the wire than OLH.
	if (Report{Kind: KindCohort, Value: 2, Seed: 7}).Size() != 8 {
		t.Fatal("OLH-C report size")
	}
	if (Report{Kind: KindCohort, Value: 2, Seed: 0}).Size() != 8 {
		t.Fatal("OLH-C report with cohort 0 misclassified")
	}
	// A kind this version does not know costs the 4-byte header: the
	// accounting layer must keep working on logs written by newer versions.
	// KindValue hits its own explicit case, not this fallback (kindswitch
	// analyzer: every registered kind is enumerated).
	if (Report{Kind: Kind(99), Value: 2, Seed: 7}).Size() != 4 {
		t.Fatal("unknown-kind report size")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindValue:  "value",
		KindUnary:  "unary",
		KindPacked: "packed",
		KindHash:   "hash",
		KindCohort: "cohort",
		Kind(99):   "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

func TestDomainPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGRR(1) },
		func() { NewOUE(0) },
		func() { NewSUE(-3) },
		func() { NewOLH(1) },
		func() { NewOLHC(1) },
		func() { NewOLHCCohorts(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("domain < 2 accepted")
				}
			}()
			f()
		}()
	}
}

func TestQuickGRRRoundTripInDomain(t *testing.T) {
	src := ldprand.New(127)
	f := func(vRaw uint8, dRaw uint8, epsRaw uint8) bool {
		d := int(dRaw%30) + 2
		v := int(vRaw) % d
		eps := 0.1 + float64(epsRaw%40)/10
		g := NewGRR(d)
		r := g.Perturb(v, eps, src)
		return r.Value >= 0 && r.Value < d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnaryBitsWellFormed(t *testing.T) {
	src := ldprand.New(131)
	f := func(vRaw uint8, dRaw uint8) bool {
		d := int(dRaw%30) + 2
		v := int(vRaw) % d
		o := NewOUE(d)
		r := o.Perturb(v, 1.0, src)
		if len(r.Bits) != d {
			return false
		}
		for _, b := range r.Bits {
			if b > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGRRPerturb(b *testing.B) {
	src := ldprand.New(1)
	g := NewGRR(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Perturb(i%100, 1.0, src)
	}
}

func BenchmarkOUEPerturb(b *testing.B) {
	src := ldprand.New(1)
	o := NewOUE(100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.Perturb(i%100, 1.0, src)
	}
}

func BenchmarkGRREstimate10k(b *testing.B) {
	src := ldprand.New(1)
	g := NewGRR(50)
	reports := make([]Report, 10000)
	for i := range reports {
		reports[i] = g.Perturb(i%50, 1.0, src)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Estimate(reports, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}
