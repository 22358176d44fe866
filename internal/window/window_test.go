package window

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

func TestAppendAndWindowSum(t *testing.T) {
	l := NewLedger(3)
	if got := l.Append(1); got != 1 {
		t.Fatalf("first append at t=%d want 1", got)
	}
	l.Append(2)
	l.Append(3)
	if got := l.WindowSum(); got != 6 {
		t.Fatalf("window sum %v want 6", got)
	}
	if got := l.Append(4); got != 4 { // evicts the 1
		t.Fatalf("fourth append at t=%d want 4", got)
	}
	if got := l.WindowSum(); got != 9 {
		t.Fatalf("window sum %v want 9", got)
	}
}

func TestWindowSumPartialWindow(t *testing.T) {
	l := NewLedger(10)
	l.Append(5)
	l.Append(7)
	if got := l.WindowSum(); got != 12 {
		t.Fatalf("partial window sum %v want 12", got)
	}
}

func TestRemaining(t *testing.T) {
	l := NewLedger(4)
	l.Append(0.3)
	l.Append(0.4)
	if got := l.Remaining(1.0); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("remaining %v want 0.3", got)
	}
	l.Append(0.5)
	if got := l.Remaining(1.0); got != 0 {
		t.Fatalf("remaining clamped %v want 0", got)
	}
}

func TestNegativeAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative append did not panic")
		}
	}()
	NewLedger(2).Append(-1)
}

func TestBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLedger(0) did not panic")
		}
	}()
	NewLedger(0)
}

func TestQuickWindowSumMatchesNaive(t *testing.T) {
	f := func(wRaw uint8, raw []uint8) bool {
		w := int(wRaw%20) + 1
		l := NewLedger(w)
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 10
			l.Append(vals[i])
		}
		// Naive rolling sum.
		naive := 0.0
		start := len(vals) - w
		if start < 0 {
			start = 0
		}
		for _, v := range vals[start:] {
			naive += v
		}
		return math.Abs(naive-l.WindowSum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxWindowSum: the largest spend over any window of w consecutive
// timestamps, here [2,3].
func TestMaxWindowSum(t *testing.T) {
	a := NewAccountant(100, 2)
	for ts, v := range []float64{1, 2, 3, 0, 0, 5} {
		a.ChargeAll(ts+1, v)
	}
	if got := a.MaxSpend(); got != 5 {
		t.Fatalf("MaxSpend %v want 5 (window [2,3])", got)
	}
}

// TestCheckCapacity: 0.3 per timestamp is 0.9 per window of 3.
func TestCheckCapacity(t *testing.T) {
	for _, c := range []struct {
		budget float64
		broken bool
	}{{1.0, false}, {0.8, true}} {
		a := NewAccountant(c.budget, 3)
		for ts := 1; ts <= 4; ts++ {
			a.ChargeAll(ts, 0.3)
		}
		if broken := len(a.Violations()) > 0; broken != c.broken {
			t.Fatalf("budget %v: violated=%v want %v (%v)", c.budget, broken, c.broken, a.Violations())
		}
	}
}

func TestQuickMaxWindowSumMatchesNaive(t *testing.T) {
	f := func(wRaw uint8, raw []uint8) bool {
		w := int(wRaw%10) + 1
		a := NewAccountant(1e9, w)
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
			a.ChargeAll(i+1, vals[i])
		}
		naiveMax := 0.0
		for i := range vals {
			sum := 0.0
			for j := i; j < i+w && j < len(vals); j++ {
				sum += vals[j]
			}
			if sum > naiveMax {
				naiveMax = sum
			}
		}
		return naiveMax == a.MaxSpend()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNoViolationWithinBudget(t *testing.T) {
	a := NewAccountant(1.0, 3)
	// Every user spends 0.3 per timestamp: window sum 0.9 <= 1.
	for ts := 1; ts <= 10; ts++ {
		a.ChargeAll(ts, 0.3)
	}
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	if got := a.MaxSpend(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("max window spend %v want 0.9", got)
	}
}

func TestDetectsOverrun(t *testing.T) {
	a := NewAccountant(1.0, 3)
	for ts := 1; ts <= 4; ts++ {
		a.ChargeAll(ts, 0.4)
	}
	v := a.Violations()
	if len(v) != 2 { // t=3 and t=4 each close a window of 1.2
		t.Fatalf("violations %v, want the charges at t=3 and t=4", v)
	}
	if v[0].T != 3 || v[0].User != AllUsers || math.Abs(v[0].Spent-1.2) > 1e-9 {
		t.Fatalf("first violation %+v", v[0])
	}
	if got := v[0].Error(); !strings.Contains(got, "every user spends eps 1.2 over window (0,3], exceeding the budget 1") {
		t.Fatalf("violation renders as %q", got)
	}
}

func TestWindowSlidesCorrectly(t *testing.T) {
	// Spending the budget at t=1 and t=4 with w=3 is fine; at t=1 and
	// t=3 it is not.
	a := NewAccountant(1.0, 3)
	a.Charge(1, 0, 1.0)
	a.Charge(4, 0, 1.0)
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("spaced spends flagged: %v", v)
	}
	b := NewAccountant(1.0, 3)
	b.Charge(1, 0, 1.0)
	b.Charge(3, 0, 1.0)
	if v := b.Violations(); len(v) != 1 || v[0].User != 0 || v[0].T != 3 {
		t.Fatalf("overlapping spends: %v, want one violation by user 0 at t=3", v)
	}
}

// TestWindowSizeCostsNothing: a history's config may name any window; the
// accountant's state follows the charges, not w.
func TestWindowSizeCostsNothing(t *testing.T) {
	a := NewAccountant(1.0, math.MaxInt)
	a.Charge(1, 0, 0.5)
	a.Charge(1<<50, 0, 0.75)
	if v := a.Violations(); len(v) != 1 || v[0].Spent != 1.25 {
		t.Fatalf("violations %v, want one at 1.25", v)
	}
}

func TestPerUserTracking(t *testing.T) {
	// Only user 1 overspends.
	a := NewAccountant(1.0, 2)
	a.Charge(1, 0, 0.5)
	a.Charge(1, 1, 0.8)
	a.Charge(2, 1, 0.8)
	v := a.Violations()
	if len(v) != 1 || v[0].User != 1 {
		t.Fatalf("violations %v, want exactly user 1", v)
	}
	if got := v[0].Error(); got != "user 1 spends eps 1.6 over window (0,2], exceeding the budget 1" {
		t.Fatalf("violation renders as %q", got)
	}
}

// TestChargeAllNamesTheTopUser: an all-user charge that breaks the budget
// only together with one user's own charges names that user.
func TestChargeAllNamesTheTopUser(t *testing.T) {
	a := NewAccountant(1.0, 4)
	a.Charge(1, 7, 0.25)
	a.Charge(1, 3, 0.5)
	a.Charge(2, 5, 0.5)
	a.ChargeAll(3, 0.75)
	v := a.Violations()
	if len(v) != 1 || v[0].User != 3 || v[0].Spent != 1.25 {
		t.Fatalf("violations %v, want user 3 (smallest id of the 0.5 tie) at 1.25", v)
	}
	if a.MaxReports() != 2 {
		t.Fatalf("max reports %d want 2", a.MaxReports())
	}
}

func TestMaxReportsPerWindow(t *testing.T) {
	a := NewAccountant(5.0, 4)
	a.Charge(1, 0, 1)
	a.Charge(2, 0, 1)
	a.Charge(9, 0, 1)
	if got := a.MaxReports(); got != 2 {
		t.Fatalf("max reports per window %d want 2", got)
	}
}

func TestEmptyAccountant(t *testing.T) {
	a := NewAccountant(1, 3)
	if v := a.Violations(); len(v) != 0 {
		t.Fatal("empty accountant reported violations")
	}
	if a.MaxSpend() != 0 {
		t.Fatal("empty accountant nonzero spend")
	}
	if a.MaxReports() != 0 {
		t.Fatal("empty accountant nonzero reports")
	}
}

func TestBadAccountantPanics(t *testing.T) {
	for _, c := range []struct {
		budget float64
		w      int
	}{{1, 0}, {0, 3}, {-1, 3}, {math.NaN(), 3}, {math.Inf(1), 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewAccountant(%v, %d) did not panic", c.budget, c.w)
				}
			}()
			NewAccountant(c.budget, c.w)
		}()
	}
}

// TestChargeBehindStreamIsViolation: timestamps must not decrease; a
// charge behind the stream is a violation and is not counted.
func TestChargeBehindStreamIsViolation(t *testing.T) {
	a := NewAccountant(1.0, 3)
	a.Charge(5, 2, 0.5)
	a.Charge(4, 2, 0.5)
	a.Charge(5, 2, 0.5)
	v := a.Violations()
	if len(v) != 1 || v[0].T != 4 || v[0].Last != 5 {
		t.Fatalf("violations %v, want the one charge at t=4", v)
	}
	if got := v[0].Error(); got != "user 2 charged at t=4 after t=5: timestamps must not decrease" {
		t.Fatalf("violation renders as %q", got)
	}
	if a.MaxSpend() != 1 {
		t.Fatalf("max spend %v: the late charge must not count", a.MaxSpend())
	}
}

// TestLargePopulationDoubleSpendCaught: one double-spend among 100 000
// users is found. A uniform 512-user audit sample misses it with
// probability 1 - 512/100000.
func TestLargePopulationDoubleSpendCaught(t *testing.T) {
	const n, cheat = 100000, 61283
	a := NewAccountant(1.0, 5)
	// Broadcast charges: 5 x 0.2 exactly fills every window.
	for ts := 1; ts <= 5; ts++ {
		a.ChargeAll(ts, 0.2)
	}
	for u := 0; u < n; u++ {
		a.Charge(6, u, 0.2)
	}
	a.Charge(6, cheat, 0.2) // the double spend: 1.2 over (1,6]
	for u := 0; u < n; u++ {
		a.Charge(7, u, 0.2)
	}
	v := a.Violations()
	if len(v) != 2 || v[0].User != cheat || v[0].T != 6 || v[1].User != cheat || v[1].T != 7 {
		t.Fatalf("violations %v, want user %d at t=6 and t=7 only", v, cheat)
	}
	if a.MaxReports() != 6 {
		t.Fatalf("max reports %d want 6", a.MaxReports())
	}
}

// TestAccountantStateIsFlat: 100 000 timestamps of per-user charges
// leave the state bounded by the window, not by T.
func TestAccountantStateIsFlat(t *testing.T) {
	const w, T, perT = 7, 100000, 3
	a := NewAccountant(1.0, w)
	charged := make([][]int, T+1)
	for ts := 1; ts <= T; ts++ {
		// Population division: a fresh block of users every timestamp,
		// each user reporting once every w+1 timestamps.
		for k := 0; k < perT; k++ {
			u := (ts*perT + k) % (perT * (w + 1))
			a.Charge(ts, u, 0.5)
			charged[ts] = append(charged[ts], u)
		}
		inWindow := map[int]bool{}
		for s := max(ts-w+1, 1); s <= ts; s++ {
			for _, u := range charged[s] {
				inWindow[u] = true
			}
		}
		retained := 0
		for _, b := range a.buckets {
			retained += len(b.users)
		}
		if len(a.buckets) != min(ts, w) || cap(a.buckets) > 4*w || retained != perT*min(ts, w) || len(a.users) != len(inWindow) {
			t.Fatalf("t=%d: %d buckets (cap %d), %d retained charges, %d tracked users; want %d, %d, %d",
				ts, len(a.buckets), cap(a.buckets), retained, len(a.users), min(ts, w), perT*min(ts, w), len(inWindow))
		}
		charged[max(ts-w, 0)] = nil
	}
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("violations %v", v[0])
	}
	if a.MaxReports() != 1 || a.MaxSpend() != 0.5 {
		t.Fatalf("max reports %d, max spend %v: want 1 and 0.5", a.MaxReports(), a.MaxSpend())
	}
}

// naiveCharge is one charge as the reference sees it; user AllUsers is a
// ChargeAll.
type naiveCharge struct {
	t, user int
	eps     float64
}

// naiveAudit is the reference the accountant must agree with: every
// charge kept forever, each user's exposures swept with a two-pointer
// window. A phantom user stands for everyone with no charge of their own.
// It returns, per charge, whether it left any user over the limit.
func naiveAudit(charges []naiveCharge, w int, limit float64) (bad []bool, maxSpend float64, maxReports int) {
	bad = make([]bool, len(charges))
	users := map[int]bool{AllUsers: true}
	for _, c := range charges {
		users[c.user] = true
	}
	for u := range users {
		var idx []int // u's exposures, in charge (and timestamp) order
		for i, c := range charges {
			if c.user == u || c.user == AllUsers {
				idx = append(idx, i)
			}
		}
		sum, lo := 0.0, 0
		for hi, i := range idx {
			sum += charges[i].eps
			for charges[i].t-charges[idx[lo]].t+1 > w {
				sum -= charges[idx[lo]].eps
				lo++
			}
			maxSpend = max(maxSpend, sum)
			maxReports = max(maxReports, hi-lo+1)
			if sum > limit {
				bad[i] = true
			}
		}
	}
	return bad, maxSpend, maxReports
}

// TestAccountantMatchesNaive drives random mixes of Charge and ChargeAll —
// repeated charges at one timestamp, gaps longer than w, dyadic ε so that
// window sums land exactly on the budget — through the accountant and the
// reference, and requires the same violating charges, max spend and max
// reports.
func TestAccountantMatchesNaive(t *testing.T) {
	src := ldprand.New(29)
	for trial := 0; trial < 2000; trial++ {
		w := 1 + src.Intn(6)
		a := NewAccountant(1, w)
		var charges []naiveCharge
		ts := 1 + src.Intn(3)
		for k, steps := 0, src.Intn(60); k < steps; k++ {
			switch r := src.Intn(10); {
			case r < 3: // stay at ts: repeated charges
			case r < 9:
				ts++
			default:
				ts += w + src.Intn(2*w) // a gap longer than the window
			}
			c := naiveCharge{t: ts, user: src.Intn(5), eps: float64(src.Intn(9)) / 8}
			if src.Intn(4) == 0 {
				c.user = AllUsers
				a.ChargeAll(c.t, c.eps)
			} else {
				a.Charge(c.t, c.user, c.eps)
			}
			charges = append(charges, c)
		}
		bad, maxSpend, maxReports := naiveAudit(charges, w, 1)
		var want []naiveCharge
		for i, c := range charges {
			if bad[i] {
				want = append(want, c)
			}
		}
		got := a.Violations()
		fail := len(got) != len(want) || a.MaxSpend() != maxSpend || a.MaxReports() != maxReports
		for i := 0; !fail && i < len(got); i++ {
			fail = got[i].T != want[i].t || want[i].user != AllUsers && got[i].User != want[i].user
		}
		if fail {
			t.Fatalf("trial %d (w=%d): accountant %v max %v/%d, reference %v max %v/%d\ncharges %v",
				trial, w, got, a.MaxSpend(), a.MaxReports(), want, maxSpend, maxReports, charges)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	l := NewLedger(50)
	for i := 0; i < b.N; i++ {
		l.Append(0.1)
	}
}
