// Package cdp implements the centralized w-event DP baselines the paper
// builds on (§3.2): the Laplace mechanism over histogram releases, the
// uniform and sampling baselines, and Kellaris et al.'s Budget Distribution
// (BD) and Budget Absorption (BA). They serve as references for comparing
// the LDP mechanisms against the trusted-aggregator setting and for
// ablation benches; the paper's own experiments are LDP-only.
//
// All mechanisms operate on frequency histograms over n users. A histogram
// release with budget ε adds Laplace noise of scale 2/(n·ε) per element
// (one user's change moves at most two elements by 1/n each, so the L1
// sensitivity of the frequency histogram is 2/n).
package cdp

import (
	"fmt"

	"ldpids/internal/ldprand"
	"ldpids/internal/window"
)

// Mechanism releases a private histogram per timestamp from the TRUE
// histogram (centralized trust model). Step must be called once per
// timestamp, in order.
type Mechanism interface {
	// Name returns the method's short name.
	Name() string
	// Step consumes the true histogram c_t and returns the release r_t
	// and the budget the timestamp spent, which an auditor charges to
	// every user. The release is immutable once returned: callers may
	// keep it, and nobody — the mechanism included — writes to it. A
	// publication is fresh storage; an approximation returns the previous
	// release itself.
	Step(c []float64) (release []float64, eps float64)
}

// Params configures a CDP mechanism.
type Params struct {
	// Eps is the total budget per window of size W.
	Eps float64
	// W is the window size.
	W int
	// N is the population size (sets the frequency-domain sensitivity).
	N int
	// Src provides Laplace noise.
	Src *ldprand.Source
}

func (p *Params) validate() {
	if p.Eps <= 0 || p.W < 1 || p.N < 1 || p.Src == nil {
		panic(fmt.Sprintf("cdp: invalid params %+v", p))
	}
}

// sensitivity is the L1 sensitivity of the frequency histogram.
func (p *Params) sensitivity() float64 { return 2 / float64(p.N) }

// laplaceRelease perturbs c with budget eps.
func laplaceRelease(c []float64, eps, sens float64, src *ldprand.Source) []float64 {
	out := make([]float64, len(c))
	scale := sens / eps
	for k, v := range c {
		out[k] = v + src.Laplace(scale)
	}
	return out
}

// expectedAbsError is the expected absolute Laplace error per element for
// the given budget: E|Lap(b)| = b.
func expectedAbsError(eps, sens float64) float64 { return sens / eps }

// meanAbsDiff is the mean absolute difference between histograms.
func meanAbsDiff(a, b []float64) float64 {
	sum := 0.0
	for k := range a {
		d := a[k] - b[k]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(a))
}

// ---------------------------------------------------------------------------
// Uniform baseline.
// ---------------------------------------------------------------------------

// Uniform releases a fresh Laplace histogram with ε/w at every timestamp.
type Uniform struct{ p Params }

// NewUniform constructs the uniform CDP baseline.
func NewUniform(p Params) *Uniform {
	p.validate()
	return &Uniform{p: p}
}

// Name implements Mechanism.
func (m *Uniform) Name() string { return "CDP-Uniform" }

// Step implements Mechanism.
func (m *Uniform) Step(c []float64) ([]float64, float64) {
	eps := m.p.Eps / float64(m.p.W)
	return laplaceRelease(c, eps, m.p.sensitivity(), m.p.Src), eps
}

// ---------------------------------------------------------------------------
// Sampling baseline.
// ---------------------------------------------------------------------------

// Sample spends the whole ε at one timestamp per window and approximates
// the rest with the last release.
type Sample struct {
	p    Params
	last []float64
	t    int
}

// NewSample constructs the sampling CDP baseline.
func NewSample(p Params) *Sample {
	p.validate()
	return &Sample{p: p}
}

// Name implements Mechanism.
func (m *Sample) Name() string { return "CDP-Sample" }

// Step implements Mechanism.
func (m *Sample) Step(c []float64) ([]float64, float64) {
	m.t++
	if (m.t-1)%m.p.W != 0 && m.last != nil {
		return m.last, 0
	}
	m.last = laplaceRelease(c, m.p.Eps, m.p.sensitivity(), m.p.Src)
	return m.last, m.p.Eps
}

// ---------------------------------------------------------------------------
// BD and BA: Budget Distribution and Budget Absorption (Kellaris et al.
// 2014).
// ---------------------------------------------------------------------------

// adaptive is BD or BA: every timestamp spends ε/2w on a private
// dissimilarity and publishes the schedule's offer if its expected error
// is below it, else re-releases r_{t-1}. BD's publications claim half of
// the publication budget left in the active window (window.Distribution);
// BA earmarks ε/2w per timestamp, and a publication absorbs the unused
// earmarks before it and nullifies as many after it (window.Absorption).
type adaptive struct {
	name string
	p    Params
	dist *window.Distribution // BD
	abs  *window.Absorption   // BA
	last []float64
	t    int
}

// NewBD constructs the budget-distribution mechanism.
func NewBD(p Params) Mechanism {
	p.validate()
	return &adaptive{name: "CDP-BD", p: p, dist: window.NewDistribution(p.Eps/2, p.W)}
}

// NewBA constructs the budget-absorption mechanism.
func NewBA(p Params) Mechanism {
	p.validate()
	return &adaptive{name: "CDP-BA", p: p, abs: window.NewAbsorption(p.W)}
}

// Name implements Mechanism.
func (m *adaptive) Name() string { return m.name }

// Step implements Mechanism.
func (m *adaptive) Step(c []float64) ([]float64, float64) {
	m.t++
	if m.last == nil {
		m.last = make([]float64, len(c))
	}
	// Private dissimilarity with ε/(2w): dis sensitivity is sens/d per
	// element averaged, i.e. 2/(n·d); use sens for a conservative bound.
	sens, unit := m.p.sensitivity(), m.p.Eps/(2*float64(m.p.W))
	dis := meanAbsDiff(c, m.last) + m.p.Src.Laplace(sens/unit)

	var eps2 float64
	k := 0 // BA's claim in earmarks of unit each
	if m.dist != nil {
		eps2 = m.dist.Offer()
	} else {
		k = m.abs.Offer(m.t, 1)
		eps2 = float64(k) * unit
	}
	if eps2 > 0 && dis > expectedAbsError(eps2, sens) {
		m.last = laplaceRelease(c, eps2, sens, m.p.Src)
	} else {
		eps2, k = 0, 0
	}
	if m.dist != nil {
		m.dist.Spend(eps2)
	} else {
		m.abs.Spend(m.t, k)
	}
	return m.last, unit + eps2
}

// Run drives a CDP mechanism over a sequence of true histograms. A
// non-nil acct is charged every timestamp's spend for every user.
func Run(m Mechanism, truth [][]float64, acct *window.Accountant) [][]float64 {
	out := make([][]float64, len(truth))
	for t, c := range truth {
		var eps float64
		if out[t], eps = m.Step(c); acct != nil {
			acct.ChargeAll(t+1, eps)
		}
	}
	return out
}
