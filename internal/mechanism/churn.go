package mechanism

import (
	"fmt"
	"sort"

	"ldpids/internal/ldprand"
	"ldpids/internal/window"
)

// Churn support (paper §6.4 Remark 2): in mobile deployments users join
// and leave over time. The population-division framework stays private
// under churn as long as two rules hold:
//
//  1. a user reports at most once in any window of w timestamps, and
//  2. a user who leaves and rejoins within w timestamps must not become
//     samplable again until w timestamps have passed since their last
//     report (otherwise leave+rejoin would launder a second report into
//     one window).
//
// ChurnPool enforces both; ChurnLPA is an LPA variant that recomputes its
// group sizes from the live census each timestamp.

// ChurnPool is an available-user pool that supports joins and leaves while
// preserving the once-per-window sampling invariant.
type ChurnPool struct {
	w        int
	src      *ldprand.Source
	avail    []int
	inPool   map[int]bool
	outUntil map[int]int // user -> first timestamp they may be sampled again
	member   map[int]bool
	t        int
}

// NewChurnPool returns a pool over the initial user ids with window size w.
func NewChurnPool(initial []int, w int, src *ldprand.Source) *ChurnPool {
	p := &ChurnPool{
		w:        w,
		src:      src,
		inPool:   make(map[int]bool, len(initial)),
		outUntil: make(map[int]int),
		member:   make(map[int]bool, len(initial)),
	}
	for _, id := range initial {
		if p.member[id] {
			continue
		}
		p.member[id] = true
		p.inPool[id] = true
		p.avail = append(p.avail, id)
	}
	return p
}

// Advance moves the pool to timestamp t (must be called once per
// timestamp, increasing) and readmits users whose cooldown expired.
// Readmissions append in ascending id order: avail's order feeds the
// seeded sampling in Draw, so appending in map-iteration order would make
// identically-seeded runs draw different users.
func (p *ChurnPool) Advance(t int) {
	p.t = t
	var expired []int
	//ldpids:orderinvariant expired is sorted below before any order-sensitive use
	for id, until := range p.outUntil {
		if t >= until {
			expired = append(expired, id)
		}
	}
	sort.Ints(expired)
	for _, id := range expired {
		delete(p.outUntil, id)
		if p.member[id] && !p.inPool[id] {
			p.inPool[id] = true
			p.avail = append(p.avail, id)
		}
	}
}

// Join adds a user. A brand-new user is samplable immediately; a returning
// user stays in cooldown until w timestamps after their last report.
func (p *ChurnPool) Join(id int) {
	if p.member[id] {
		return
	}
	p.member[id] = true
	if until, cooling := p.outUntil[id]; cooling && p.t < until {
		return // readmitted by Advance when the cooldown expires
	}
	if !p.inPool[id] {
		p.inPool[id] = true
		p.avail = append(p.avail, id)
	}
}

// Leave removes a user: they are no longer samplable, and their report
// history keeps counting toward the cooldown if they rejoin.
func (p *ChurnPool) Leave(id int) {
	if !p.member[id] {
		return
	}
	delete(p.member, id)
	if p.inPool[id] {
		delete(p.inPool, id)
		for i, v := range p.avail {
			if v == id {
				p.avail[i] = p.avail[len(p.avail)-1]
				p.avail = p.avail[:len(p.avail)-1]
				break
			}
		}
	}
}

// Census returns the number of current members (samplable or cooling).
func (p *ChurnPool) Census() int { return len(p.member) }

// Available returns the number of samplable users.
func (p *ChurnPool) Available() int { return len(p.avail) }

// Draw samples up to k users without replacement; sampled users enter a
// w-timestamp cooldown. It returns fewer than k users only if the pool is
// short (the caller should treat the draw size as authoritative).
func (p *ChurnPool) Draw(k int) []int {
	if k > len(p.avail) {
		k = len(p.avail)
	}
	if k <= 0 {
		return nil
	}
	out, rest := drawTail(p.avail, k, p.src)
	p.avail = rest
	for _, id := range out {
		delete(p.inPool, id)
		p.outUntil[id] = p.t + p.w
	}
	return out
}

// ChurnLPA is a population-absorption mechanism over a churning
// population: group sizes are recomputed from the live census every
// timestamp, and the rejoin cooldown guarantees w-event LDP for every user
// regardless of join/leave patterns.
type ChurnLPA struct {
	p       Params
	pool    *ChurnPool
	abs     *window.Absorption
	last    []float64
	scratch []float64 // c1, the dissimilarity estimate, every timestamp
	t       int
}

// NewChurnLPA constructs a churn-aware LPA over the initial user set.
// Params.N is only the initial census; the mechanism follows the pool.
func NewChurnLPA(p Params, initial []int) (*ChurnLPA, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(initial) < 2*p.W {
		return nil, fmt.Errorf("mechanism: ChurnLPA needs >= 2w initial users, got %d", len(initial))
	}
	return &ChurnLPA{
		p:       p,
		pool:    NewChurnPool(initial, p.W, p.Src.Split()),
		abs:     window.NewAbsorption(p.W),
		last:    zeros(p.d()),
		scratch: zeros(p.d()),
	}, nil
}

// Pool exposes the churn pool so the driver can apply joins/leaves between
// timestamps.
func (m *ChurnLPA) Pool() *ChurnPool { return m.pool }

// Name implements Mechanism.
func (m *ChurnLPA) Name() string { return "ChurnLPA" }

// Step implements Mechanism.
func (m *ChurnLPA) Step(env Env) ([]float64, error) {
	m.t++
	m.pool.Advance(m.t)

	// One census-scaled unit sizes both the dissimilarity group and the
	// publication earmark.
	unit := max(int(m.p.disFrac()*float64(m.pool.Census())/float64(m.p.W)), 1)
	u1 := m.pool.Draw(unit)
	if len(u1) == 0 {
		return m.last, nil // the population collapsed: approximate
	}
	dis, err := dissimilarityRound(env, m.p.Oracle, u1, m.p.Eps, m.last, m.scratch)
	if err != nil {
		return nil, err
	}

	// M2: absorption, never asking for more users than are samplable.
	n := min(int(m.abs.Offer(m.t, float64(unit))), m.pool.Available())
	if n > 0 && dis > m.p.Oracle.VarianceApprox(m.p.Eps, n) {
		c2, err := estimate(env, m.p.Oracle, m.pool.Draw(n), m.p.Eps, nil)
		if err != nil {
			return nil, err
		}
		m.last = c2
		m.abs.Spend(m.t, float64(n))
	}
	return m.last, nil
}
