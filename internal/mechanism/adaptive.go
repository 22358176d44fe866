package mechanism

import (
	"fmt"
	"math"

	"ldpids/internal/window"
)

// Adaptive is LBD, LBA, LPD, LPA or ChurnLPA: one adaptive step over a
// resource and a publication schedule. Every timestamp spends a fixed
// share of the resource on the dissimilarity sub-mechanism M_{t,1}, asks
// the schedule what a publication may claim, and publishes that claim if
// its potential publication error is below the dissimilarity; otherwise
// it re-releases r_{t-1}.
//
// The resource is the budget (pop == nil: every user reports, at a share
// of ε) or the population (a share of the users reports, at the whole ε,
// drawn from pop, which keeps anyone from reporting twice in a window).
type Adaptive struct {
	name  string
	p     Params
	dist  *window.Distribution // LBD, LPD
	abs   *window.Absorption   // LBA, LPA, ChurnLPA
	m1    float64              // M_{t,1}'s budget per timestamp under budget division
	unit  float64              // what one absorption earmark is worth: ε/2w (LBA) or one user
	least float64              // the smallest publication: LPD's u_min users
	pop   population           // population division only
	last  []float64
	// scratch holds c1, the dissimilarity estimate, every timestamp.
	scratch []float64
	t       int
}

// population is the resource of the population-division methods: the
// users a round may draw, none of them twice in a window. Pool (LPD, LPA)
// and ChurnPool (ChurnLPA) implement it.
type population interface {
	// begin moves to timestamp t and returns the size of its M1 group
	// and of one absorption earmark, in users.
	begin(t int) (m1, earmark int)
	// limit caps a publication of n users at what the population can
	// draw.
	limit(n int) int
	// draw removes and returns n users, the reporters of a round at t.
	draw(t, n int) ([]int, error)
}

// NewLBD constructs the budget-distribution mechanism (Algorithm 1): the
// M1 share is ε/2w per timestamp under the paper's even split, and each
// publication takes half of the publication budget still unclaimed in
// the active window.
func NewLBD(p Params) (*Adaptive, error) {
	m1, pub := p.disFrac()*p.Eps/float64(p.W), (1-p.disFrac())*p.Eps
	if err := p.validate(m1, pub/2); err != nil {
		return nil, err
	}
	m := newAdaptive("LBD", p, m1)
	m.dist = window.NewDistribution(pub, p.W)
	return m, nil
}

// NewLBA constructs the budget-absorption mechanism (Algorithm 2): each
// timestamp earmarks ε/2w of publication budget, a publication absorbs the
// earmarks of the approximated timestamps before it, and enough
// timestamps after it are nullified to pay the loan back.
func NewLBA(p Params) (*Adaptive, error) {
	m1, unit := p.disFrac()*p.Eps/float64(p.W), (1-p.disFrac())*p.Eps/float64(p.W)
	if err := p.validate(m1, float64(p.W)*unit); err != nil {
		return nil, err
	}
	m := newAdaptive("LBA", p, m1)
	m.abs, m.unit = window.NewAbsorption(p.W), unit
	return m, nil
}

// NewLPD constructs the population-distribution mechanism (Algorithm 3):
// ⌊N/2w⌋ dissimilarity users per timestamp, and each publication claims
// half of the publication users still unclaimed in the active window, if
// that is at least Params.UMin. It requires N >= 2w.
func NewLPD(p Params) (*Adaptive, error) {
	m, err := newPopulation("LPD", p)
	if err != nil {
		return nil, err
	}
	m.dist = window.NewDistribution((1-p.disFrac())*float64(p.N), p.W)
	m.least = float64(max(p.UMin, 1))
	return m, nil
}

// NewLPA constructs the population-absorption mechanism (Algorithm 4):
// LBA's schedule over users, ⌊N/2w⌋ publication users earmarked per
// timestamp. It requires N >= 2w.
func NewLPA(p Params) (*Adaptive, error) {
	m, err := newPopulation("LPA", p)
	if err != nil {
		return nil, err
	}
	if m.pop.(*Pool).earmark < 1 {
		return nil, fmt.Errorf("mechanism: LPA publication group empty (N=%d w=%d frac=%v)", p.N, p.W, p.disFrac())
	}
	m.abs = window.NewAbsorption(p.W)
	return m, nil
}

// newAdaptive returns a method with the given M1 budget share (0 under
// population division); the caller sets its schedule.
func newAdaptive(name string, p Params, m1 float64) *Adaptive {
	return &Adaptive{name: name, p: p, m1: m1, unit: 1, last: zeros(p.d()), scratch: zeros(p.d())}
}

// newPopulation validates p for a population-division method and returns
// it over users 0..N-1 with ⌊N·DisFraction/w⌋ dissimilarity users and
// ⌊N·(1-DisFraction)/w⌋ earmarked publication users per timestamp; the
// caller sets its schedule.
func newPopulation(name string, p Params) (*Adaptive, error) {
	if err := p.validate(p.Eps); err != nil {
		return nil, err
	}
	if p.N < 2*p.W {
		return nil, fmt.Errorf("mechanism: %s needs N >= 2w, got N=%d w=%d", name, p.N, p.W)
	}
	m1 := int(p.disFrac() * float64(p.N) / float64(p.W))
	if m1 < 1 {
		return nil, fmt.Errorf("mechanism: %s dissimilarity group empty (N=%d w=%d frac=%v)", name, p.N, p.W, p.disFrac())
	}
	pool := NewPool(p.N, p.Src.Split())
	pool.used, pool.m1 = newUsedRing(p.W), m1
	pool.earmark = int((1 - p.disFrac()) * float64(p.N) / float64(p.W))
	m := newAdaptive(name, p, 0)
	m.pop = pool
	return m, nil
}

// Name implements Mechanism.
func (m *Adaptive) Name() string { return m.name }

// Step implements Mechanism.
func (m *Adaptive) Step(env Env) ([]float64, error) {
	m.t++
	// Sub-mechanism M_{t,1}: the dissimilarity between r_{t-1} and a
	// fresh estimate from the fixed per-timestamp share. Absorption
	// counts a budget's earmarks one by one and a population's in users.
	eps, n, earmark := m.m1, env.N(), 1
	var users []int // nil: everyone, under budget division
	var err error
	if m.pop != nil {
		eps = m.p.Eps
		n, earmark = m.pop.begin(m.t)
		if users, err = m.pop.draw(m.t, n); err != nil {
			return nil, err
		}
	}
	dis := math.Inf(-1) // nobody left to ask (ChurnLPA): approximate
	if m.pop == nil || len(users) > 0 {
		if dis, err = dissimilarityRound(env, m.p.Oracle, users, eps, m.last, m.scratch); err != nil {
			return nil, err
		}
	}

	// Sub-mechanism M_{t,2}: publish the schedule's offer if its potential
	// publication error (Eq. 6) is below dis, else approximate. Under
	// population division the offer is whole users that can be drawn.
	var amount float64
	claim := 0 // Absorption's count
	if m.dist != nil {
		amount = m.dist.Offer()
	} else {
		claim = m.abs.Offer(m.t, earmark)
		amount = float64(claim) * m.unit
	}
	eps, n = amount, env.N()
	if m.pop != nil {
		claim = m.pop.limit(int(amount))
		amount, eps, n = float64(claim), m.p.Eps, claim
	}
	if amount > 0 && amount >= m.least && dis > m.p.Oracle.VarianceApprox(eps, n) {
		if m.pop != nil {
			if users, err = m.pop.draw(m.t, n); err != nil {
				return nil, err
			}
		}
		c2, err := estimate(env, m.p.Oracle, users, eps, nil)
		if err != nil {
			return nil, err
		}
		m.last = c2
	} else {
		amount, claim = 0, 0
	}
	if m.dist != nil {
		m.dist.Spend(amount)
	} else {
		m.abs.Spend(m.t, claim)
	}
	return m.last, nil
}
