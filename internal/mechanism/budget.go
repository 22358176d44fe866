package mechanism

// LBU, LDP Budget Uniform (§5.2.1), evenly assigns ε/w to every timestamp: all users report via the FO
// with the fixed per-timestamp budget, and the server releases a fresh
// estimate each time.
type LBU struct {
	p Params
}

// NewLBU constructs the uniform budget-division baseline.
func NewLBU(p Params) (*LBU, error) {
	if err := p.validate(p.Eps / float64(p.W)); err != nil {
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

// LSP, LDP Sampling (§5.2.2), invests the entire budget ε at one sampling timestamp per window and
// approximates the remaining w-1 timestamps with the last release.
type LSP struct {
	p    Params
	last []float64
	t    int
}

// NewLSP constructs the sampling baseline. Sampling happens at timestamps
// 1, w+1, 2w+1, ....
func NewLSP(p Params) (*LSP, error) {
	if err := p.validate(p.Eps); err != nil {
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
