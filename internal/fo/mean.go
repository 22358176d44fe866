package fo

import (
	"fmt"
	"math"
	"math/big"

	"ldpids/internal/ldprand"
)

// Perturber is a one-shot LDP mechanism for a value v ∈ [-1, 1] whose
// output is an unbiased estimate of v in [-Bound(ε), Bound(ε)].
type Perturber interface {
	// Name returns the mechanism's short name.
	Name() string
	// Perturb randomizes v with budget eps.
	Perturb(v, eps float64, src *ldprand.Source) float64
	// Bound returns C(ε), the largest magnitude an output can take.
	Bound(eps float64) float64
	// WorstVariance returns the per-report variance bound over v ∈
	// [-1, 1], used for publication-error estimates.
	WorstVariance(eps float64) float64
}

func checkValue(v float64) {
	if v < -1 || v > 1 || math.IsNaN(v) {
		panic(fmt.Sprintf("fo: mean value %v outside [-1, 1]", v))
	}
}

// Duchi is Duchi et al.'s binary mechanism: it outputs ±C with
// C = (e^ε+1)/(e^ε-1), choosing the positive pole with probability
// (1 + v/C)/2; the output is unbiased with variance C² − v².
type Duchi struct{}

// Name implements Perturber.
func (Duchi) Name() string { return "Duchi" }

// Perturb implements Perturber.
func (d Duchi) Perturb(v, eps float64, src *ldprand.Source) float64 {
	checkValue(v)
	c := d.Bound(eps)
	if src.Bernoulli(0.5 * (1 + v/c)) {
		return c
	}
	return -c
}

// Bound implements Perturber: the pole magnitude.
func (Duchi) Bound(eps float64) float64 {
	e := math.Exp(eps)
	return (e + 1) / (e - 1)
}

// WorstVariance implements Perturber: C² − v² is maximal at v = 0.
func (d Duchi) WorstVariance(eps float64) float64 {
	c := d.Bound(eps)
	return c * c
}

// Piecewise is the Piecewise Mechanism of Wang et al. (ICDE 2019): with
// probability e^{ε/2}/(e^{ε/2}+1) the output is uniform on [l(v), r(v)]
// (width C−1 around the scaled v), otherwise uniform on the rest of
// [-C, C], where C = (e^{ε/2}+1)/(e^{ε/2}-1). It is unbiased with lower
// variance than Duchi for moderate-to-large ε.
type Piecewise struct{}

// Name implements Perturber.
func (Piecewise) Name() string { return "Piecewise" }

// Perturb implements Perturber.
func (p Piecewise) Perturb(v, eps float64, src *ldprand.Source) float64 {
	checkValue(v)
	e2 := math.Exp(eps / 2)
	c := p.Bound(eps)
	l := (c+1)/2*v - (c-1)/2
	r := l + c - 1
	var x float64
	if src.Bernoulli(e2 / (e2 + 1)) {
		x = l + src.Float64()*(r-l)
	} else {
		// Uniform on [-C, l) ∪ (r, C], each segment by its length.
		left, right := l+c, c-r
		u := src.Float64() * (left + right)
		if u < left {
			x = -c + u
		} else {
			x = r + (u - left)
		}
	}
	// Rounding can carry x an ulp past ±C, which the aggregator refuses.
	return min(max(x, -c), c)
}

// Bound implements Perturber.
func (Piecewise) Bound(eps float64) float64 {
	e2 := math.Exp(eps / 2)
	return (e2 + 1) / (e2 - 1)
}

// WorstVariance implements Perturber: the PM variance
// v²/(e^{ε/2}−1) + (e^{ε/2}+3)/(3(e^{ε/2}−1)²) is maximal at |v| = 1.
func (Piecewise) WorstVariance(eps float64) float64 {
	e2 := math.Exp(eps / 2)
	return 1/(e2-1) + (e2+3)/(3*(e2-1)*(e2-1))
}

// BestPerturber picks Duchi for small ε and Piecewise for larger ε,
// following the crossover of their worst-case variances.
func BestPerturber(eps float64) Perturber {
	d, p := Duchi{}, Piecewise{}
	if d.WorstVariance(eps) <= p.WorstVariance(eps) {
		return d
	}
	return p
}

// ---------------------------------------------------------------------------
// Mean: the mean oracle.
// ---------------------------------------------------------------------------

// Mean is the mean oracle: each user holds a real value in [-1, 1], and
// the "histogram" has one element, the population mean. Clients perturb
// with BestPerturber(ε) and report the output as a KindNumeric report; the
// server sums reports exactly into integer counters (see meanAggregator),
// so a mean round folds, stripes, merges, ships and refolds like any
// categorical round, bit-identically in any order.
type Mean struct{}

// NewMean returns the mean oracle.
func NewMean() *Mean { return &Mean{} }

// Name implements Oracle.
func (*Mean) Name() string { return "Mean" }

// Domain implements Oracle: one released element, the mean.
func (*Mean) Domain() int { return 1 }

// PerturbValue randomizes a real value v ∈ [-1, 1] with budget eps.
func (*Mean) PerturbValue(v, eps float64, src *ldprand.Source) Report {
	x := BestPerturber(eps).Perturb(v, eps, src)
	return Report{Kind: KindNumeric, Seed: math.Float64bits(x)}
}

// Perturb implements Oracle: PerturbValue of float64(v).
func (m *Mean) Perturb(v int, eps float64, src *ldprand.Source) Report {
	return m.PerturbValue(float64(v), eps, src)
}

// Estimate implements Oracle.
func (m *Mean) Estimate(reports []Report, eps float64) ([]float64, error) {
	return batchEstimate(m, reports, eps)
}

// Variance implements Oracle: the worst case, as VarianceApprox.
func (m *Mean) Variance(eps float64, n int, _ float64) float64 {
	return m.VarianceApprox(eps, n)
}

// VarianceApprox implements Oracle: WorstVariance(ε)/n of the perturber
// the clients use.
func (*Mean) VarianceApprox(eps float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return BestPerturber(eps).WorstVariance(eps) / float64(n)
}

// The exact sum. Every finite float64 is an integer multiple of 2^-1074,
// m·2^(s-1074) with a 53-bit mantissa m and a shift s ∈ [0, 2045], so
// x·2^1074 is an integer below 2^2098: 68 digits of 31 bits. A report adds
// m<<s into at most three adjacent digits of its sign's bank; a digit grows
// by under 2^31 per report, so an int64 counter absorbs 2^32 reports.
const (
	meanDigitBits = 31
	meanDigitMask = 1<<meanDigitBits - 1
	meanDigits    = 68
	meanScale     = 1074
)

// meanAggregator folds KindNumeric reports into two banks of fixed-point
// digits — counts[:68] for x ≥ 0, counts[68:] for x < 0 — so the round's
// sum is integer state: a FrameCounts frame of non-negative counters that
// merges by addition like every other oracle's. Rounding happens once, in
// Estimate.
type meanAggregator struct {
	countCore
	bound float64 // C(ε): Add refuses any larger |x|
}

// NewAggregator implements Oracle.
func (m *Mean) NewAggregator(eps float64) (Aggregator, error) {
	return armed(&meanAggregator{countCore: countCore{counts: make([]int64, 2*meanDigits)}}, eps)
}

// reset implements reusable: a budget whose C(ε) or worst variance is not
// finite would admit unbounded reports or release NaN, so it is refused.
func (a *meanAggregator) reset(eps float64) error {
	p := BestPerturber(eps)
	c := p.Bound(eps)
	if !(eps > 0) || math.IsInf(eps, 1) || !finite(c) || !finite(p.WorstVariance(eps)) {
		return ErrBadEpsilon
	}
	a.bound, a.n = c, 0
	clear(a.counts)
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Add implements Aggregator.
func (a *meanAggregator) Add(r Report) error {
	if r.Kind != KindNumeric {
		return fmt.Errorf("fo: Mean aggregator got %s report, want numeric", r.Kind)
	}
	if x := math.Float64frombits(r.Seed); !(math.Abs(x) <= a.bound) {
		return fmt.Errorf("fo: Mean report value %v outside [-%v, %v]", x, a.bound, a.bound)
	}
	m, s := r.Seed&(1<<52-1), int(r.Seed>>52&0x7ff)
	if s > 0 { // normal: the implicit leading bit, and a biased exponent one above the shift
		m |= 1 << 52
		s--
	}
	bank := a.counts[:meanDigits]
	if r.Seed>>63 != 0 {
		bank = a.counts[meanDigits:]
	}
	i, o := s/meanDigitBits, uint(s%meanDigitBits)
	bank[i] += int64(m << o & meanDigitMask)
	bank[i+1] += int64(m >> (meanDigitBits - o) & meanDigitMask)
	bank[i+2] += int64(m >> (2*meanDigitBits - o))
	a.n++
	return nil
}

// Estimate implements Aggregator.
func (a *meanAggregator) Estimate() ([]float64, error) { return a.estimateInto(nil) }

// estimateInto implements reusable: (pos − neg)/(n·2^1074), correctly
// rounded once.
func (a *meanAggregator) estimateInto(dst []float64) ([]float64, error) {
	if a.n == 0 {
		return nil, ErrNoReports
	}
	var sum, digit big.Int
	for i := meanDigits - 1; i >= 0; i-- {
		sum.Lsh(&sum, meanDigitBits)
		sum.Add(&sum, digit.SetInt64(a.counts[i]-a.counts[meanDigits+i]))
	}
	den := new(big.Int).Lsh(big.NewInt(int64(a.n)), meanScale)
	mean, _ := new(big.Rat).SetFrac(&sum, den).Float64()
	est := sized(dst, 1)
	est[0] = mean
	return est, nil
}
