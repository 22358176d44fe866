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
// ChurnPool enforces both; ChurnLPA is LPA over a ChurnPool, Adaptive's
// step with group sizes recomputed from the live census each timestamp.

// ChurnPool is an available-user pool that supports joins and leaves while
// preserving the once-per-window sampling invariant. A member is either
// samplable, in avail, or cooling, in outUntil, whose timestamps all lie
// after the pool's.
type ChurnPool struct {
	w        int
	src      *ldprand.Source
	avail    []int
	outUntil map[int]int // user -> first timestamp they may be sampled again
	member   map[int]bool
	t        int
	frac     float64 // ChurnLPA's M1 fraction, which sizes its groups
}

// NewChurnPool returns a pool over the initial user ids with window size w.
func NewChurnPool(initial []int, w int, src *ldprand.Source) *ChurnPool {
	p := &ChurnPool{
		w:        w,
		src:      src,
		outUntil: make(map[int]int),
		member:   make(map[int]bool, len(initial)),
	}
	for _, id := range initial {
		if p.member[id] {
			continue
		}
		p.member[id] = true
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
		if p.member[id] {
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
	if _, cooling := p.outUntil[id]; !cooling { // else Advance readmits them
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
	for i, v := range p.avail {
		if v == id {
			p.avail[i] = p.avail[len(p.avail)-1]
			p.avail = p.avail[:len(p.avail)-1]
			break
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
	if k = min(k, len(p.avail)); k <= 0 {
		return nil
	}
	out, rest := drawTail(p.avail, k, p.src)
	p.avail = rest
	for _, id := range out {
		p.outUntil[id] = p.t + p.w
	}
	return out
}

// begin implements population: it advances to t and sizes both the M1
// group and one absorption earmark at ⌊frac·census/w⌋ users, at least one.
func (p *ChurnPool) begin(t int) (int, int) {
	p.Advance(t)
	unit := max(int(p.frac*float64(p.Census())/float64(p.w)), 1)
	return unit, unit
}

// limit implements population: a publication asks for no more users than
// are samplable.
func (p *ChurnPool) limit(n int) int { return min(n, p.Available()) }

// draw implements population: a short pool gives a short draw, an empty
// one when the population has collapsed, never an error.
func (p *ChurnPool) draw(_, n int) ([]int, error) { return p.Draw(n), nil }

// ChurnLPA is a population-absorption mechanism over a churning
// population: Adaptive's step over a ChurnPool, whose group sizes follow
// the live census every timestamp and whose rejoin cooldown guarantees
// w-event LDP for every user regardless of join/leave patterns.
type ChurnLPA struct {
	*Adaptive
	pool *ChurnPool
}

// NewChurnLPA constructs a churn-aware LPA over the initial user set.
// Params.N is only the initial census; the mechanism follows the pool.
func NewChurnLPA(p Params, initial []int) (*ChurnLPA, error) {
	if err := p.validate(p.Eps); err != nil {
		return nil, err
	}
	if len(initial) < 2*p.W {
		return nil, fmt.Errorf("mechanism: ChurnLPA needs >= 2w initial users, got %d", len(initial))
	}
	pool := NewChurnPool(initial, p.W, p.Src.Split())
	pool.frac = p.disFrac()
	m := newAdaptive("ChurnLPA", p, 0)
	m.abs, m.pop = window.NewAbsorption(p.W), pool
	return &ChurnLPA{m, pool}, nil
}

// Pool exposes the churn pool so the driver can apply joins/leaves between
// timestamps.
func (m *ChurnLPA) Pool() *ChurnPool { return m.pool }
