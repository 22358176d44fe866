package window

import "testing"

// step is one timestamp of a schedule script: whether it publishes, and
// the offer the schedule must make before it decides — a float resource
// for Distribution, a whole number of earmarks for Absorption.
type step[T int | float64] struct {
	publish bool
	offer   T
}

// TestDistributionOffers: a publication is offered half of what the last
// w-1 timestamps left of the capacity, so back-to-back publications halve
// the offer, and a claim is offered again once it leaves the window.
func TestDistributionOffers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     int
		steps []step[float64]
	}{
		{"w=4", 4, []step[float64]{
			{true, 0.5}, {true, 0.25}, {true, 0.125},
			{true, 0.0625},   // t=1's claim has left [t-3, t-1]
			{false, 0.28125}, // 1 - (0.25 + 0.125 + 0.0625), halved
			{false, 0.40625}, // 1 - (0.125 + 0.0625)
			{false, 0.46875}, // 1 - 0.0625
			{false, 0.5},     // every claim has left
		}},
		{"w=1 looks one timestamp back", 1, []step[float64]{
			{true, 0.5}, {true, 0.25}, {true, 0.375}, {false, 0.3125}, {false, 0.5},
		}},
	} {
		d := NewDistribution(1, tc.w)
		for i, s := range tc.steps {
			got := d.Offer()
			if got != s.offer {
				t.Errorf("%s: t=%d offers %v, want %v", tc.name, i+1, got, s.offer)
			}
			if s.publish {
				d.Spend(got)
			} else {
				d.Spend(0)
			}
		}
	}
}

// TestAbsorptionOffers: every timestamp earmarks one unit; a publication
// absorbs the earmarks since the last one, at most w, and nullifies as many
// timestamps after it as it absorbed beyond its own.
func TestAbsorptionOffers(t *testing.T) {
	const w, unit = 4, 1
	a := NewAbsorption(w)
	for i, s := range []step[int]{
		{true, 1},  // t=1: its own earmark
		{false, 1}, // t=2..4 approximate and save theirs
		{false, 2},
		{false, 3},
		{true, 4}, // t=5 absorbs 4 earmarks, capped at w: t=6..8 are nullified
		{true, 0},
		{true, 0},
		{false, 0},
		{false, 1}, // t=9: the loan is repaid
		{true, 2},  // t=10 absorbs one earmark besides its own: t=11 is nullified
		{true, 0},
		{false, 1},
	} {
		ts := i + 1
		got := a.Offer(ts, unit)
		if got != s.offer {
			t.Errorf("t=%d offers %v, want %v", ts, got, s.offer)
		}
		if s.publish {
			a.Spend(ts, got) // a nullified timestamp spends 0, which changes nothing
		}
	}
}

// TestAbsorptionNullifiedSpanCapped: the span a publication nullifies is its
// claim in the unit of the later call, minus one, and never more than w.
// Only a unit that shrinks after the claim (ChurnLPA's census-scaled
// earmark) reaches the cap; a fixed unit nullifies at most w-1 timestamps.
func TestAbsorptionNullifiedSpanCapped(t *testing.T) {
	const w = 4
	a := NewAbsorption(w)
	a.Spend(1, 10) // ten units of 1: t_N = 9, capped at w
	for ts := 2; ts <= 1+w; ts++ {
		if got := a.Offer(ts, 1); got != 0 {
			t.Errorf("t=%d offers %v inside the capped span, want 0", ts, got)
		}
	}
	if got := a.Offer(2+w, 1); got != 1 {
		t.Errorf("t=%d offers %v, want 1: the span is capped at w=%d", 2+w, got, w)
	}

	a = NewAbsorption(w)
	a.Spend(1, 6) // three units of 2, measured later in units of 3: t_N = 1
	if got := a.Offer(2, 3); got != 0 {
		t.Errorf("t=2 offers %v, want 0", got)
	}
	if got := a.Offer(3, 3); got != 3 {
		t.Errorf("t=3 offers %v, want one unit of 3", got)
	}
}
