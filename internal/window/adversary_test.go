package window

import (
	"math"
	"strings"
	"testing"

	"ldpids/internal/ldprand"
)

// The schedules decide nothing themselves. Whether a timestamp publishes
// is the mechanism's comparison of dis against err, and the data control
// dis, so the sequence of decisions is the adversary's (Kellaris et al.,
// PVLDB 2014). The tests below let it be anything, charge every timestamp
// what an adaptive method spends there — its M1 share, plus its claim if
// it publishes — through an Accountant, and require that no window
// overspends.

// replay drives one schedule under the decisions (true: publish whatever
// the schedule offers) with M1 fraction frac and window w, and returns
// the Accountant it charged. With users == 0 the resource is the budget
// eps, as in LBD and LBA: M1 spends frac·ε/w per timestamp and an
// absorption earmark is worth (1-frac)·ε/w. With users > 0 it is the
// population, as in LPD and LPA: the Accountant's budget is the user
// count, which no window may draw beyond, M1 draws ⌊frac·N/w⌋ users, an
// earmark is ⌊(1-frac)·N/w⌋ users, and claims are whole users.
func replay(absorb bool, eps, frac float64, users, w int, decisions []bool) *Accountant {
	capacity, m1, worth, mark := eps, frac*eps/float64(w), (1-frac)*eps/float64(w), 1
	if users > 0 {
		capacity, worth = float64(users), 1
		m1 = float64(int(frac * capacity / float64(w)))
		mark = int((1 - frac) * capacity / float64(w))
	}
	acct := NewAccountant(capacity, w)
	dist, abs := NewDistribution((1-frac)*capacity, w), NewAbsorption(w)
	for i, publish := range decisions {
		t := i + 1
		acct.ChargeAll(t, m1)
		claim := 0.0
		if absorb {
			if k := abs.Offer(t, mark); publish && k > 0 {
				abs.Spend(t, k)
				claim = float64(k) * worth
			}
		} else {
			if publish {
				claim = dist.Offer()
				if users > 0 {
					claim = math.Floor(claim)
				}
			}
			dist.Spend(claim)
		}
		if claim > 0 {
			acct.ChargeAll(t, claim)
		}
	}
	return acct
}

// check replays both schedules and fails the test on the first window
// over budget, naming the point and the decisions so it replays.
func check(t *testing.T, eps, frac float64, users, w int, decisions []bool) {
	t.Helper()
	for _, absorb := range []bool{false, true} {
		if v := replay(absorb, eps, frac, users, w, decisions).Violations(); len(v) > 0 {
			seq := []byte(strings.Repeat("a", len(decisions)))
			for i, publish := range decisions {
				if publish {
					seq[i] = 'p'
				}
			}
			t.Fatalf("absorb=%v eps=%v frac=%v users=%d w=%d decisions=%s: %v",
				absorb, eps, frac, users, w, seq, v[0])
		}
	}
}

// TestSchedulesEveryDecisionSequence: every publish/approximate sequence
// of length 2w+2, for every w <= 6, at budgets that include points where
// a claim kept in ε loses an earmark to float division (ε = 0.7 at w = 4,
// ε = 5.3 at w = 6), and over a population.
func TestSchedulesEveryDecisionSequence(t *testing.T) {
	for w := 1; w <= 6; w++ {
		n := 2*w + 2
		decisions := make([]bool, n)
		for mask := 0; mask < 1<<n; mask++ {
			for i := range decisions {
				decisions[i] = mask>>i&1 == 1
			}
			for _, frac := range []float64{0.25, 0.5, 0.75} {
				for _, eps := range []float64{0.1, 0.7, 1, 5.3, 10} {
					check(t, eps, frac, 0, w, decisions)
				}
				check(t, 1, frac, 50, w, decisions)
			}
		}
	}
}

// TestSchedulesRandomDecisionSequences: seeded random sequences of 6w+2
// decisions on the grid ε ∈ {0.1, 0.2, …, 10} × M1 fraction ∈ {0.25, 0.5,
// 0.75}, over the budget and over a population, each sequence at its own
// publish rate: 32 at w = 11 and 8 at random w <= 200.
func TestSchedulesRandomDecisionSequences(t *testing.T) {
	src := ldprand.New(11)
	for e := 1; e <= 100; e++ {
		eps := float64(e) / 10
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			for i := 0; i < 40; i++ {
				w, rate := 11, src.Float64()
				if i%5 == 4 {
					w = 1 + src.Intn(200)
				}
				decisions := make([]bool, 6*w+2)
				for j := range decisions {
					decisions[j] = src.Float64() < rate
				}
				check(t, eps, frac, 0, w, decisions)
				check(t, eps, frac, int(float64(w)/min(frac, 1-frac))+src.Intn(1000), w, decisions)
			}
		}
	}
}
