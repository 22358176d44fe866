package mechanism

import (
	"fmt"

	"ldpids/internal/ldprand"
)

// Pool tracks the available user set U_A of the population-division
// methods (Algorithms 3-4): users leave the pool when sampled to report and return w-1
// timestamps later, so nobody participates twice in any sliding window.
// As LPD's and LPA's population it also remembers who reported when, in
// used, and the group sizes fixed at construction.
type Pool struct {
	avail       []int
	src         *ldprand.Source
	used        *usedRing
	m1, earmark int
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
	out, rest := drawTail(p.avail, k, p.src)
	p.avail = rest
	return out, nil
}

// drawTail samples k of avail uniformly without replacement by a partial
// Fisher–Yates shuffle that moves them to avail's tail, and returns a copy
// of them and the rest of avail.
func drawTail(avail []int, k int, src *ldprand.Source) (drawn, rest []int) {
	n := len(avail)
	for i := 0; i < k; i++ {
		j := src.Intn(n - i)
		avail[n-1-i], avail[j] = avail[j], avail[n-1-i]
	}
	drawn = make([]int, k)
	copy(drawn, avail[n-k:])
	return drawn, avail[:n-k]
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

// recycle returns the users recorded at timestamp t to pool and empties
// their slot. The slot keeps its array, so the next record into it
// allocates nothing; pool.Return copies the users out first.
func (r *usedRing) recycle(t int, pool *Pool) {
	i := t % r.w
	pool.Return(r.slots[i])
	r.slots[i] = r.slots[i][:0]
}

// begin implements population: the users of timestamp t-w fall outside
// the window that ends at t.
func (p *Pool) begin(t int) (int, int) {
	if t > p.used.w {
		p.used.recycle(t-p.used.w, p)
	}
	return p.m1, p.earmark
}

// limit implements population: the pool always holds what the schedules
// offer, and a draw that found it short fails loudly.
func (p *Pool) limit(n int) int { return n }

// draw implements population.
func (p *Pool) draw(t, n int) ([]int, error) {
	users, err := p.Draw(n)
	if err == nil {
		p.used.record(t, users)
	}
	return users, err
}

// LPU, LDP Population Uniform (§6.1), partitions the population into w disjoint groups; at each timestamp
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
	if err := p.validate(p.Eps); err != nil {
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
