package mechanism

import (
	"fmt"

	"ldpids/internal/ldprand"
	"ldpids/internal/window"
)

// ---------------------------------------------------------------------------
// Pool: available-user bookkeeping with recycling (Algorithms 3-4).
// ---------------------------------------------------------------------------

// Pool tracks the available user set U_A of the population-division
// methods: users leave the pool when sampled to report and return w-1
// timestamps later, so nobody participates twice in any sliding window.
type Pool struct {
	avail []int
	src   *ldprand.Source
}

// NewPool returns a pool containing users 0..n-1.
func NewPool(n int, src *ldprand.Source) *Pool {
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	return &Pool{avail: avail, src: src}
}

// Available returns the number of users currently in the pool.
func (p *Pool) Available() int { return len(p.avail) }

// Draw removes and returns k uniformly sampled users. It returns an error
// if the pool holds fewer than k users, which would indicate a broken
// window invariant in the calling mechanism.
func (p *Pool) Draw(k int) ([]int, error) {
	if k < 0 {
		return nil, fmt.Errorf("mechanism: negative draw %d", k)
	}
	if k > len(p.avail) {
		return nil, fmt.Errorf("mechanism: pool exhausted: need %d users, have %d", k, len(p.avail))
	}
	// Partial Fisher-Yates: move k random users to the tail, cut it off.
	n := len(p.avail)
	for i := 0; i < k; i++ {
		j := p.src.Intn(n - i)
		p.avail[n-1-i], p.avail[j] = p.avail[j], p.avail[n-1-i]
	}
	out := make([]int, k)
	copy(out, p.avail[n-k:])
	p.avail = p.avail[:n-k]
	return out, nil
}

// Return recycles users back into the pool.
func (p *Pool) Return(users []int) {
	p.avail = append(p.avail, users...)
}

// usedRing remembers which users were drawn at each of the last w
// timestamps so they can be recycled when their window expires.
type usedRing struct {
	w     int
	slots [][]int
}

func newUsedRing(w int) *usedRing {
	return &usedRing{w: w, slots: make([][]int, w)}
}

// record stores the users drawn at timestamp t (appending to any users
// already recorded for t).
func (r *usedRing) record(t int, users []int) {
	r.slots[t%r.w] = append(r.slots[t%r.w], users...)
}

// take removes and returns the users recorded at timestamp t.
func (r *usedRing) take(t int) []int {
	i := t % r.w
	u := r.slots[i]
	r.slots[i] = nil
	return u
}

// ---------------------------------------------------------------------------
// LPU: LDP Population Uniform (§6.1).
// ---------------------------------------------------------------------------

// LPU partitions the population into w disjoint groups; at each timestamp
// one group (round-robin) reports with the entire budget ε and the server
// releases a fresh estimate.
type LPU struct {
	p      Params
	groups [][]int
	t      int
}

// NewLPU constructs the uniform population-division baseline. It requires
// N >= w so every group is non-empty.
func NewLPU(p Params) (*LPU, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < p.W {
		return nil, fmt.Errorf("mechanism: LPU needs N >= w, got N=%d w=%d", p.N, p.W)
	}
	// Random assignment into w near-equal groups.
	perm := p.Src.Perm(p.N)
	groups := make([][]int, p.W)
	for i, u := range perm {
		g := i % p.W
		groups[g] = append(groups[g], u)
	}
	return &LPU{p: p, groups: groups}, nil
}

// Name implements Mechanism.
func (m *LPU) Name() string { return "LPU" }

// Step implements Mechanism.
func (m *LPU) Step(env Env) ([]float64, error) {
	g := m.t % m.p.W
	m.t++
	return estimate(env, m.p.Oracle, m.groups[g], m.p.Eps, nil)
}

// ---------------------------------------------------------------------------
// LPD: LDP Population Distribution (Algorithm 3).
// ---------------------------------------------------------------------------

// LPD is the population-division analogue of LBD: ⌊N/(2w)⌋ dissimilarity
// users report per timestamp with the whole budget ε, and each publication
// claims half of the publication users still unclaimed in the active
// window. Used users are recycled once they fall out of the window.
type LPD struct {
	p       Params
	pool    *Pool
	used    *usedRing
	pubLed  *window.Ledger // |U_{i,2}| per timestamp over the last w-1
	last    []float64
	scratch []float64 // c1, the dissimilarity estimate, every timestamp
	t       int
	uMin    int
	m1Size  int
}

// NewLPD constructs the population-distribution mechanism (Algorithm 3).
// It requires N >= 2w so the per-timestamp dissimilarity group is
// non-empty.
func NewLPD(p Params) (*LPD, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < 2*p.W {
		return nil, fmt.Errorf("mechanism: LPD needs N >= 2w, got N=%d w=%d", p.N, p.W)
	}
	uMin := p.UMin
	if uMin <= 0 {
		uMin = 1
	}
	lw := p.W - 1
	if lw < 1 {
		lw = 1
	}
	m1 := int(p.disFrac() * float64(p.N) / float64(p.W))
	if m1 < 1 {
		return nil, fmt.Errorf("mechanism: LPD dissimilarity group empty (N=%d w=%d)", p.N, p.W)
	}
	return &LPD{
		p:       p,
		pool:    NewPool(p.N, p.Src.Split()),
		used:    newUsedRing(p.W),
		pubLed:  window.NewLedger(lw),
		last:    zeros(p.d()),
		scratch: zeros(p.d()),
		uMin:    uMin,
		m1Size:  m1,
	}, nil
}

// Name implements Mechanism.
func (m *LPD) Name() string { return "LPD" }

// Step implements Mechanism.
func (m *LPD) Step(env Env) ([]float64, error) {
	m.t++

	// Sub-mechanism M_{t,1}: dissimilarity users report with full ε.
	u1, err := m.pool.Draw(m.m1Size)
	if err != nil {
		return nil, err
	}
	m.used.record(m.t, u1)
	c1, err := estimate(env, m.p.Oracle, u1, m.p.Eps, m.scratch)
	if err != nil {
		return nil, err
	}
	dis := dissimilarity(c1, m.last, publicationError(m.p.Oracle, m.p.Eps, len(u1)))

	// Sub-mechanism M_{t,2}: remaining publication users in the active
	// window, halved for the potential publication.
	nRM := (1-m.p.disFrac())*float64(m.p.N) - m.pubLed.WindowSum()
	if nRM < 0 {
		nRM = 0
	}
	nPP := int(nRM / 2)
	errPub := publicationError(m.p.Oracle, m.p.Eps, nPP)

	var release []float64
	if dis > errPub && nPP >= m.uMin {
		// Publication strategy.
		u2, err := m.pool.Draw(nPP)
		if err != nil {
			return nil, err
		}
		m.used.record(m.t, u2)
		c2, err := estimate(env, m.p.Oracle, u2, m.p.Eps, nil)
		if err != nil {
			return nil, err
		}
		m.pubLed.Append(float64(nPP))
		m.last = c2
		release = copyVec(c2)
	} else {
		// Approximation strategy.
		m.pubLed.Append(0)
		release = copyVec(m.last)
	}

	// Recycle the users of timestamp t-w+1; they fall outside the next
	// active window.
	if m.t >= m.p.W {
		m.pool.Return(m.used.take(m.t - m.p.W + 1))
	}
	return release, nil
}

// ---------------------------------------------------------------------------
// LPA: LDP Population Absorption (Algorithm 4).
// ---------------------------------------------------------------------------

// LPA is the population-division analogue of LBA: ⌊N/(2w)⌋ publication
// users are earmarked per timestamp; a publication absorbs the earmarks of
// preceding approximated timestamps and nullifies enough succeeding
// earmarks to compensate.
type LPA struct {
	p            Params
	pool         *Pool
	used         *usedRing
	last         []float64
	scratch      []float64 // c1, the dissimilarity estimate, every timestamp
	t            int
	lastPub      int // l
	lastPubUsers int // |U_{l,2}|
	m1Size       int // dissimilarity users per timestamp
	pubUnit      int // publication-user earmark per timestamp
}

// NewLPA constructs the population-absorption mechanism (Algorithm 4).
func NewLPA(p Params) (*LPA, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < 2*p.W {
		return nil, fmt.Errorf("mechanism: LPA needs N >= 2w, got N=%d w=%d", p.N, p.W)
	}
	m1 := int(p.disFrac() * float64(p.N) / float64(p.W))
	pub := int((1 - p.disFrac()) * float64(p.N) / float64(p.W))
	if m1 < 1 || pub < 1 {
		return nil, fmt.Errorf("mechanism: LPA group empty (N=%d w=%d frac=%v)", p.N, p.W, p.disFrac())
	}
	return &LPA{
		p:       p,
		pool:    NewPool(p.N, p.Src.Split()),
		used:    newUsedRing(p.W),
		last:    zeros(p.d()),
		scratch: zeros(p.d()),
		m1Size:  m1,
		pubUnit: pub,
	}, nil
}

// Name implements Mechanism.
func (m *LPA) Name() string { return "LPA" }

// Step implements Mechanism.
func (m *LPA) Step(env Env) ([]float64, error) {
	m.t++

	// Sub-mechanism M_{t,1}: identical to LPD.
	u1, err := m.pool.Draw(m.m1Size)
	if err != nil {
		return nil, err
	}
	m.used.record(m.t, u1)
	c1, err := estimate(env, m.p.Oracle, u1, m.p.Eps, m.scratch)
	if err != nil {
		return nil, err
	}
	dis := dissimilarity(c1, m.last, publicationError(m.p.Oracle, m.p.Eps, len(u1)))

	release, err := m.step2(env, dis)
	if err != nil {
		return nil, err
	}
	if m.t >= m.p.W {
		m.pool.Return(m.used.take(m.t - m.p.W + 1))
	}
	return release, nil
}

// step2 is sub-mechanism M_{t,2}: nullification, absorption, and strategy
// determination.
func (m *LPA) step2(env Env, dis float64) ([]float64, error) {
	// t_N = |U_{l,2}|/⌊N/(2w)⌋ - 1 timestamps after l are nullified.
	tN := 0
	if m.lastPubUsers > 0 {
		tN = m.lastPubUsers/m.pubUnit - 1
	}
	if m.lastPub > 0 && m.t-m.lastPub <= tN {
		return copyVec(m.last), nil
	}

	// Absorption: earmarks since the nullified span, capped at w.
	tA := m.t - (m.lastPub + tN)
	if tA > m.p.W {
		tA = m.p.W
	}
	nPP := m.pubUnit * tA
	errPub := publicationError(m.p.Oracle, m.p.Eps, nPP)

	if dis > errPub {
		u2, err := m.pool.Draw(nPP)
		if err != nil {
			return nil, err
		}
		m.used.record(m.t, u2)
		c2, err := estimate(env, m.p.Oracle, u2, m.p.Eps, nil)
		if err != nil {
			return nil, err
		}
		m.last = c2
		m.lastPub = m.t
		m.lastPubUsers = nPP
		return copyVec(c2), nil
	}
	return copyVec(m.last), nil
}
