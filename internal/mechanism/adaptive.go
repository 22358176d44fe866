package mechanism

import (
	"fmt"
	"math"

	"ldpids/internal/window"
)

// Adaptive is LBD, LBA, LPD or LPA: one adaptive step over a resource
// and a publication schedule. Every timestamp spends a fixed share of the
// resource on the dissimilarity sub-mechanism M_{t,1}, asks the schedule
// what a publication may claim, and publishes that claim if its potential
// publication error is below the dissimilarity; otherwise it re-releases
// r_{t-1}.
//
// The resource is the budget (pool == nil: every user reports, at a share
// of ε) or the population (a share of the users reports, at the whole ε,
// drawn from pool and recycled through used once the window has passed,
// so nobody reports twice in a window).
type Adaptive struct {
	name  string
	p     Params
	dist  *window.Distribution // LBD, LPD
	abs   *window.Absorption   // LBA, LPA
	unit  float64              // absorption's earmark per timestamp
	m1    float64              // M_{t,1}'s share per timestamp: a budget or a user count
	least float64              // the smallest publication: LPD's u_min users
	pool  *Pool                // population division only
	used  *usedRing
	last  []float64
	// scratch holds c1, the dissimilarity estimate, every timestamp.
	scratch []float64
	t       int
}

// NewLBD constructs the budget-distribution mechanism (Algorithm 1): the
// M1 share is ε/2w per timestamp under the paper's even split, and each
// publication takes half of the publication budget still unclaimed in
// the active window.
func NewLBD(p Params) (*Adaptive, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	m := newAdaptive("LBD", p, p.disFrac()*p.Eps/float64(p.W))
	m.dist = window.NewDistribution((1-p.disFrac())*p.Eps, p.W)
	return m, nil
}

// NewLBA constructs the budget-absorption mechanism (Algorithm 2): each
// timestamp earmarks ε/2w of publication budget, a publication absorbs the
// earmarks of the approximated timestamps before it, and enough
// timestamps after it are nullified to pay the loan back.
func NewLBA(p Params) (*Adaptive, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	m := newAdaptive("LBA", p, p.disFrac()*p.Eps/float64(p.W))
	m.abs, m.unit = window.NewAbsorption(p.W), (1-p.disFrac())*p.Eps/float64(p.W)
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
	unit := int((1 - p.disFrac()) * float64(p.N) / float64(p.W))
	if unit < 1 {
		return nil, fmt.Errorf("mechanism: LPA publication group empty (N=%d w=%d frac=%v)", p.N, p.W, p.disFrac())
	}
	m.abs, m.unit = window.NewAbsorption(p.W), float64(unit)
	return m, nil
}

// newAdaptive returns a budget-division method with the given M1 share;
// the caller sets its schedule.
func newAdaptive(name string, p Params, m1 float64) *Adaptive {
	return &Adaptive{name: name, p: p, m1: m1, last: zeros(p.d()), scratch: zeros(p.d())}
}

// newPopulation validates p for a population-division method and returns
// it with ⌊N·DisFraction/w⌋ dissimilarity users per timestamp; the caller
// sets its schedule.
func newPopulation(name string, p Params) (*Adaptive, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < 2*p.W {
		return nil, fmt.Errorf("mechanism: %s needs N >= 2w, got N=%d w=%d", name, p.N, p.W)
	}
	m1 := int(p.disFrac() * float64(p.N) / float64(p.W))
	if m1 < 1 {
		return nil, fmt.Errorf("mechanism: %s dissimilarity group empty (N=%d w=%d frac=%v)", name, p.N, p.W, p.disFrac())
	}
	m := newAdaptive(name, p, float64(m1))
	m.pool, m.used = NewPool(p.N, p.Src.Split()), newUsedRing(p.W)
	return m, nil
}

// Name implements Mechanism.
func (m *Adaptive) Name() string { return m.name }

// Step implements Mechanism.
func (m *Adaptive) Step(env Env) ([]float64, error) {
	m.t++
	// Sub-mechanism M_{t,1}: the dissimilarity between r_{t-1} and a
	// fresh estimate from the fixed per-timestamp share.
	eps, n := m.share(m.m1, env.N())
	users, err := m.draw(n)
	if err != nil {
		return nil, err
	}
	dis, err := dissimilarityRound(env, m.p.Oracle, users, eps, m.last, m.scratch)
	if err != nil {
		return nil, err
	}

	// Sub-mechanism M_{t,2}: publish the schedule's offer if its potential
	// publication error (Eq. 6) is below dis, else approximate.
	var amount float64
	if m.dist != nil {
		amount = m.dist.Offer()
	} else {
		amount = m.abs.Offer(m.t, m.unit)
	}
	if m.pool != nil {
		amount = math.Floor(amount) // whole users
	}
	eps, n = m.share(amount, env.N())
	if amount > 0 && amount >= m.least && dis > m.p.Oracle.VarianceApprox(eps, n) {
		if users, err = m.draw(n); err != nil {
			return nil, err
		}
		c2, err := estimate(env, m.p.Oracle, users, eps, nil)
		if err != nil {
			return nil, err
		}
		m.last = c2
	} else {
		amount = 0
	}
	if m.dist != nil {
		m.dist.Spend(amount)
	} else {
		m.abs.Spend(m.t, amount)
	}

	// The users of timestamp t-w+1 fall outside the next active window.
	if m.pool != nil && m.t >= m.p.W {
		m.used.recycle(m.t-m.p.W+1, m.pool)
	}
	return m.last, nil
}

// share returns the budget and the number of reporters of a round that
// spends amount of the resource: all users at ε = amount under budget
// division, amount users at the whole ε under population division.
func (m *Adaptive) share(amount float64, all int) (eps float64, n int) {
	if m.pool == nil {
		return amount, all
	}
	return m.p.Eps, int(amount)
}

// draw returns the reporters of a round of n users at timestamp m.t: nil,
// everyone, under budget division; n users from the pool, recorded for
// recycling, under population division.
func (m *Adaptive) draw(n int) ([]int, error) {
	if m.pool == nil {
		return nil, nil
	}
	users, err := m.pool.Draw(n)
	if err != nil {
		return nil, err
	}
	m.used.record(m.t, users)
	return users, nil
}
