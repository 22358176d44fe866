package mechanism

import (
	"ldpids/internal/window"
)

// ---------------------------------------------------------------------------
// LBU: LDP Budget Uniform (§5.2.1).
// ---------------------------------------------------------------------------

// LBU evenly assigns ε/w to every timestamp: all users report via the FO
// with the fixed per-timestamp budget, and the server releases a fresh
// estimate each time.
type LBU struct {
	p Params
}

// NewLBU constructs the uniform budget-division baseline.
func NewLBU(p Params) (*LBU, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &LBU{p: p}, nil
}

// Name implements Mechanism.
func (m *LBU) Name() string { return "LBU" }

// Step implements Mechanism.
func (m *LBU) Step(env Env) ([]float64, error) {
	eps := m.p.Eps / float64(m.p.W)
	return estimate(env, m.p.Oracle, nil, eps, nil)
}

// ---------------------------------------------------------------------------
// LSP: LDP Sampling (§5.2.2).
// ---------------------------------------------------------------------------

// LSP invests the entire budget ε at one sampling timestamp per window and
// approximates the remaining w-1 timestamps with the last release.
type LSP struct {
	p    Params
	last []float64
	t    int
}

// NewLSP constructs the sampling baseline. Sampling happens at timestamps
// 1, w+1, 2w+1, ....
func NewLSP(p Params) (*LSP, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &LSP{p: p, last: zeros(p.d())}, nil
}

// Name implements Mechanism.
func (m *LSP) Name() string { return "LSP" }

// Step implements Mechanism.
func (m *LSP) Step(env Env) ([]float64, error) {
	m.t++
	if (m.t-1)%m.p.W == 0 {
		est, err := estimate(env, m.p.Oracle, nil, m.p.Eps, nil)
		if err != nil {
			return nil, err
		}
		m.last = est
	}
	return m.last, nil
}

// ---------------------------------------------------------------------------
// LBD: LDP Budget Distribution (Algorithm 1).
// ---------------------------------------------------------------------------

// LBD adaptively chooses, at every timestamp, between publishing a fresh
// estimate and re-releasing the previous one. Half the window budget funds
// per-timestamp dissimilarity estimation (ε/2w each); the other half is
// distributed to publications in an exponentially decreasing way: each
// publication takes half of the publication budget still unclaimed in the
// active window.
type LBD struct {
	p       Params
	pubLed  *window.Ledger // ε_{t,2} per timestamp over the last w-1 entries
	last    []float64
	scratch []float64 // c1, the dissimilarity estimate, every timestamp
}

// NewLBD constructs the budget-distribution mechanism (Algorithm 1).
func NewLBD(p Params) (*LBD, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	// The remaining-budget rule sums ε_{i,2} over i ∈ [t-w+1, t-1]: a
	// window of w-1 previous timestamps.
	lw := p.W - 1
	if lw < 1 {
		lw = 1
	}
	return &LBD{p: p, pubLed: window.NewLedger(lw), last: zeros(p.d()), scratch: zeros(p.d())}, nil
}

// Name implements Mechanism.
func (m *LBD) Name() string { return "LBD" }

// Step implements Mechanism.
func (m *LBD) Step(env Env) ([]float64, error) {
	// Sub-mechanism M_{t,1}: private dissimilarity estimation with the
	// fixed per-timestamp dissimilarity budget (ε/2w under the paper's
	// even split).
	eps1 := m.p.disFrac() * m.p.Eps / float64(m.p.W)
	c1, err := estimate(env, m.p.Oracle, nil, eps1, m.scratch)
	if err != nil {
		return nil, err
	}
	dis := dissimilarity(c1, m.last, publicationError(m.p.Oracle, eps1, env.N()))

	// Sub-mechanism M_{t,2}: strategy determination. The potential
	// publication budget is half the publication budget remaining in the
	// active window.
	epsRM := m.pubLed.Remaining((1 - m.p.disFrac()) * m.p.Eps)
	eps2 := epsRM / 2
	errPub := publicationError(m.p.Oracle, eps2, env.N())

	if dis > errPub && eps2 > 0 {
		// Publication strategy.
		c2, err := estimate(env, m.p.Oracle, nil, eps2, nil)
		if err != nil {
			return nil, err
		}
		m.pubLed.Append(eps2)
		m.last = c2
		return c2, nil
	}
	// Approximation strategy: no publication budget consumed.
	m.pubLed.Append(0)
	return m.last, nil
}

// ---------------------------------------------------------------------------
// LBA: LDP Budget Absorption (Algorithm 2).
// ---------------------------------------------------------------------------

// LBA uniformly earmarks ε/(2w) publication budget per timestamp, lets
// publications absorb the budget of preceding approximated timestamps, and
// nullifies the earmarks of enough succeeding timestamps to pay the loan.
type LBA struct {
	p       Params
	last    []float64
	scratch []float64 // c1, the dissimilarity estimate, every timestamp
	t       int
	lastPub int     // l: timestamp of the last publication (0 = none)
	epsPub  float64 // ε_{l,2}: budget spent at the last publication
	pubLed  *window.Ledger
}

// NewLBA constructs the budget-absorption mechanism (Algorithm 2).
func NewLBA(p Params) (*LBA, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &LBA{p: p, last: zeros(p.d()), scratch: zeros(p.d()), pubLed: window.NewLedger(p.W)}, nil
}

// Name implements Mechanism.
func (m *LBA) Name() string { return "LBA" }

// Step implements Mechanism.
func (m *LBA) Step(env Env) ([]float64, error) {
	m.t++
	disUnit := m.p.disFrac() * m.p.Eps / float64(m.p.W)
	unit := (1 - m.p.disFrac()) * m.p.Eps / float64(m.p.W)

	// Sub-mechanism M_{t,1}: identical to LBD.
	c1, err := estimate(env, m.p.Oracle, nil, disUnit, m.scratch)
	if err != nil {
		return nil, err
	}
	dis := dissimilarity(c1, m.last, publicationError(m.p.Oracle, disUnit, env.N()))

	// Sub-mechanism M_{t,2}: nullification after a large publication.
	// t_N = ε_{l,2}/(ε/2w) - 1 timestamps following l must forfeit their
	// earmarked budget.
	tN := 0
	if m.epsPub > 0 {
		tN = int(m.epsPub/unit) - 1
	}
	if m.lastPub > 0 && m.t-m.lastPub <= tN {
		m.pubLed.Append(0)
		return m.last, nil
	}

	// Absorption: the budget of timestamps since the nullified span can
	// be claimed, capped at w earmarks.
	tA := m.t - (m.lastPub + tN)
	if tA > m.p.W {
		tA = m.p.W
	}
	eps2 := unit * float64(tA)
	errPub := publicationError(m.p.Oracle, eps2, env.N())

	if dis > errPub {
		c2, err := estimate(env, m.p.Oracle, nil, eps2, nil)
		if err != nil {
			return nil, err
		}
		m.pubLed.Append(eps2)
		m.last = c2
		m.lastPub = m.t
		m.epsPub = eps2
		return c2, nil
	}
	m.pubLed.Append(0)
	return m.last, nil
}
