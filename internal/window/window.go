// Package window holds the sliding windows of the w-event guarantee: the
// two publication schedules the adaptive mechanisms spend a window's
// resource by, the Ledger under them, and the Accountant that audits what
// the mechanisms spent.
//
// The schedules are Kellaris et al.'s (Differentially Private Event
// Sequences over Infinite Streams, PVLDB 2014). They hand out a resource
// per window of w timestamps without caring what it is: privacy budget
// under budget division, reporting users under population division.
//
//   - Distribution offers each publication half of the capacity the last
//     w-1 timestamps left unspent: LBD (Algorithm 1), LPD (Algorithm 3)
//     and the centralized BD.
//   - Absorption earmarks one unit per timestamp; a publication absorbs
//     the earmarks skipped since the last one, at most w, and nullifies as
//     many after it: LBA (Algorithm 2), LPA (Algorithm 4), ChurnLPA and the
//     centralized BA. It counts in whole earmarks (or whole users), never
//     in ε, so the span it nullifies is exact.
//
// A Ledger records one non-negative value per timestamp and answers the
// sum over the most recent w entries in O(1).
//
// An Accountant proves the paper's guarantee itself: no user spends more
// than the budget ε over any window of w consecutive timestamps. It is
// fed one charge at a time, in timestamp order — by the simulation
// Runner's collection observer and by the history checker's folds — and
// sees nothing but those charges, so it audits any mechanism black-box.
// It is exact for every user and holds only the current window's charges.
package window

import (
	"fmt"
	"math"
)

// Ledger records one non-negative float per timestamp and maintains the
// rolling sum over the most recent w entries. Timestamps are appended in
// order starting at t=1.
type Ledger struct {
	w       int
	entries []float64 // ring buffer of the last w entries
	head    int       // index in entries of the oldest retained entry
	n       int       // number of entries currently retained (≤ w)
	t       int       // last appended timestamp (0 before first append)
	sum     float64   // sum of retained entries
}

// NewLedger returns a ledger with window size w (w >= 1).
func NewLedger(w int) *Ledger {
	if w < 1 {
		panic(fmt.Sprintf("window: window size must be >= 1, got %d", w))
	}
	return &Ledger{w: w, entries: make([]float64, w)}
}

// Append records value v (must be >= 0) for the next timestamp and returns
// that timestamp.
func (l *Ledger) Append(v float64) int {
	if v < 0 {
		panic(fmt.Sprintf("window: negative ledger entry %v", v))
	}
	if l.n == l.w {
		l.sum -= l.entries[l.head]
		l.entries[l.head] = v
		l.head = (l.head + 1) % l.w
	} else {
		l.entries[(l.head+l.n)%l.w] = v
		l.n++
	}
	l.sum += v
	l.t++
	return l.t
}

// WindowSum returns the sum of entries over the most recent min(w, t)
// timestamps, i.e. the active window ending at the current timestamp.
func (l *Ledger) WindowSum() float64 { return l.sum }

// Remaining returns capacity - WindowSum(), clamped at zero.
func (l *Ledger) Remaining(capacity float64) float64 {
	r := capacity - l.sum
	if r < 0 {
		return 0
	}
	return r
}

// Distribution is the budget-distribution schedule: a publication is
// offered half of the capacity the last w-1 timestamps left unspent, so
// back-to-back publications claim 1/2, 1/4, 1/8, ... of it, and what a
// publication claims returns to the pool once it leaves the window.
type Distribution struct {
	capacity float64
	spent    *Ledger // what each of the last w-1 timestamps claimed
}

// NewDistribution returns the schedule of a resource of the given capacity
// per window of w timestamps (w >= 1).
func NewDistribution(capacity float64, w int) *Distribution {
	// The offer at t leaves out what [t-w+1, t-1] claimed: w-1 earlier
	// timestamps, one for w = 1.
	return &Distribution{capacity: capacity, spent: NewLedger(max(w-1, 1))}
}

// Offer returns what a publication at the current timestamp may claim.
func (d *Distribution) Offer() float64 { return d.spent.Remaining(d.capacity) / 2 }

// Spend records what the current timestamp claimed, 0 for an
// approximation, and moves to the next one. Call it once per timestamp.
func (d *Distribution) Spend(amount float64) { d.spent.Append(amount) }

// Absorption is the budget-absorption schedule: every timestamp earmarks
// one unit. A publication at t absorbs the earmarks of the timestamps
// since the last publication l and its nullified span, at most w of them,
// and the t_N = claim/unit - 1 timestamps after it (at most w) are
// nullified: they may not publish, so their earmarks repay the loan.
//
// Offers and claims are integers: whole earmarks under budget division,
// where the caller passes unit 1 and multiplies the count by its ε per
// earmark, and whole users under population division. So t_N is an exact
// integer division. A claim kept in ε and divided by the ε per earmark
// in floats can come out one earmark short (at ε = 1, w = 11 and
// u = ε/2w, (3·u)/u truncates to 2), and the publication after the
// shortened span then claims an earmark the window has already spent.
type Absorption struct {
	w     int
	last  int // l: the last publication's timestamp, 0 before any
	claim int // what the publication at l claimed
}

// NewAbsorption returns the schedule for windows of w timestamps (w >= 1).
func NewAbsorption(w int) *Absorption { return &Absorption{w: w} }

// Offer returns what a publication at timestamp t may claim when one
// timestamp earmarks unit, or 0 if t is nullified. The unit may change
// from call to call (ChurnLPA's follows the census); the nullified span is
// measured in the unit of the call.
func (a *Absorption) Offer(t, unit int) int {
	tN := 0
	if a.last > 0 {
		tN = min(a.claim/unit-1, a.w)
	}
	if t-a.last <= tN {
		return 0
	}
	return unit * min(t-(a.last+tN), a.w)
}

// Spend records that timestamp t claimed claim; 0, an approximation,
// changes nothing.
func (a *Absorption) Spend(t, claim int) {
	if claim > 0 {
		a.last, a.claim = t, claim
	}
}

// AllUsers is a Violation's User when the breaking charge was a ChargeAll
// and no user had a charge of their own in the window: every user spent
// the same.
const AllUsers = -1

// Violation is one charge that broke the w-event guarantee.
type Violation struct {
	// User is the charged user; for a ChargeAll, the user with the
	// largest window spend (the smallest id on a tie), or AllUsers.
	User int
	// T is the charge's timestamp; the window is (T-W, T].
	T, W int
	// Spent is the user's ε over the window, this charge included;
	// Budget is the accountant's budget.
	Spent, Budget float64
	// Last is, for a charge that arrived behind the stream (T < Last),
	// the later timestamp already charged. Such a charge is not counted.
	Last int
}

// Error renders the violation.
func (v Violation) Error() string {
	who := fmt.Sprintf("user %d", v.User)
	if v.User == AllUsers {
		who = "every user"
	}
	if v.T < v.Last {
		return fmt.Sprintf("%s charged at t=%d after t=%d: timestamps must not decrease", who, v.T, v.Last)
	}
	return fmt.Sprintf("%s spends eps %.6g over window (%d,%d], exceeding the budget %.6g",
		who, v.Spent, v.T-v.W, v.T, v.Budget)
}

// spend is ε and report count summed over the window.
type spend struct {
	eps float64
	n   int
}

// charge is one per-user charge.
type charge struct {
	user int
	eps  float64
}

// bucket holds one timestamp's charges.
type bucket struct {
	t     int
	all   spend // ChargeAll calls
	users []charge
}

// Accountant audits the w-event guarantee over a stream of charges whose
// timestamps must not decrease.
type Accountant struct {
	budget, limit float64
	w             int
	t             int      // latest charged timestamp
	buckets       []bucket // the charged timestamps in (t-w, t], oldest first
	all           spend    // ChargeAll spend over the window
	users         map[int]spend
	violations    []Violation
	maxSpend      float64
	maxReports    int
}

// NewAccountant returns an accountant for budget ε per window of w
// timestamps (w >= 1). A window spend above budget·(1+1e-9) is a
// violation: the slack absorbs the float error of summing the mechanisms'
// ε divisions, and a real double-spend overshoots by far more.
func NewAccountant(budget float64, w int) *Accountant {
	if w < 1 || !(budget > 0) || math.IsInf(budget, 1) {
		panic(fmt.Sprintf("window: accountant needs w >= 1 and a finite budget > 0, got w=%d budget=%v", w, budget))
	}
	return &Accountant{budget: budget, limit: budget * (1 + 1e-9), w: w, users: make(map[int]spend)}
}

// Charge bills user u for one report at timestamp t with budget eps.
func (a *Accountant) Charge(t, u int, eps float64) {
	b := a.advance(t, u)
	if b == nil {
		return
	}
	b.users = append(b.users, charge{u, eps})
	s := a.users[u]
	s.add(eps)
	a.users[u] = s
	a.check(t, u, spend{a.all.eps + s.eps, a.all.n + s.n})
}

// ChargeAll bills every user for one report at timestamp t with budget
// eps, in O(1) plus the users with charges of their own in the window.
func (a *Accountant) ChargeAll(t int, eps float64) {
	b := a.advance(t, AllUsers)
	if b == nil {
		return
	}
	b.all.add(eps)
	a.all.add(eps)
	top, who := spend{}, AllUsers
	for u, s := range a.users {
		if s.eps > top.eps || s.eps == top.eps && who != AllUsers && u < who {
			top.eps, who = s.eps, u
		}
		top.n = max(top.n, s.n)
	}
	a.check(t, who, spend{a.all.eps + top.eps, a.all.n + top.n})
}

// Observe is a collection observer (collect.Env.Observer): users == nil
// means the whole population.
func (a *Accountant) Observe(t int, users []int, eps float64) {
	if users == nil {
		a.ChargeAll(t, eps)
		return
	}
	for _, u := range users {
		a.Charge(t, u, eps)
	}
}

// Violations returns every violating charge, in charge order.
func (a *Accountant) Violations() []Violation { return a.violations }

// MaxSpend returns the largest ε any user spent over any window.
func (a *Accountant) MaxSpend() float64 { return a.maxSpend }

// MaxReports returns the largest number of reports any user made within
// any window; the population-division methods keep it at 1.
func (a *Accountant) MaxReports() int { return a.maxReports }

func (s *spend) add(eps float64) {
	s.eps += eps
	s.n++
}

// advance moves the window to end at t, expiring the charges that left
// it, and returns t's bucket. A charge behind the stream is a violation
// and gets no bucket.
func (a *Accountant) advance(t, u int) *bucket {
	if t < a.t {
		a.violations = append(a.violations, Violation{User: u, T: t, W: a.w, Budget: a.budget, Last: a.t})
		return nil
	}
	a.t = t
	i := 0
	for ; i < len(a.buckets) && a.buckets[i].t <= t-a.w; i++ {
		a.expire(&a.buckets[i])
	}
	a.buckets = a.buckets[i:]
	if n := len(a.buckets); n == 0 || a.buckets[n-1].t != t {
		a.buckets = append(a.buckets, bucket{t: t})
	}
	return &a.buckets[len(a.buckets)-1]
}

// expire removes one bucket's charges from the window sums, forgetting a
// user whose last charge leaves.
func (a *Accountant) expire(b *bucket) {
	a.all.eps -= b.all.eps
	a.all.n -= b.all.n
	for _, c := range b.users {
		s := a.users[c.user]
		if s.n--; s.n == 0 {
			delete(a.users, c.user)
			continue
		}
		s.eps -= c.eps
		a.users[c.user] = s
	}
	*b = bucket{} // the slot may outlive the window until the slice moves
}

// check records one charge's window spend.
func (a *Accountant) check(t, u int, s spend) {
	a.maxSpend = max(a.maxSpend, s.eps)
	a.maxReports = max(a.maxReports, s.n)
	if s.eps > a.limit {
		a.violations = append(a.violations, Violation{User: u, T: t, W: a.w, Spent: s.eps, Budget: a.budget})
	}
}
