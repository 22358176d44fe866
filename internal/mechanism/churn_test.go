package mechanism

import (
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestChurnPoolBasics(t *testing.T) {
	p := NewChurnPool(ids(10), 3, ldprand.New(1))
	if p.Census() != 10 || p.Available() != 10 {
		t.Fatal("initial state")
	}
	p.Advance(1)
	got := p.Draw(4)
	if len(got) != 4 || p.Available() != 6 {
		t.Fatalf("draw %v avail %d", got, p.Available())
	}
	// Drawn users are cooling down until t=4.
	p.Advance(2)
	if p.Available() != 6 {
		t.Fatal("cooldown readmitted too early")
	}
	p.Advance(4)
	if p.Available() != 10 {
		t.Fatalf("cooldown not released at t=4: %d", p.Available())
	}
}

func TestChurnPoolShortDrawClamps(t *testing.T) {
	p := NewChurnPool(ids(3), 2, ldprand.New(2))
	p.Advance(1)
	if got := p.Draw(10); len(got) != 3 {
		t.Fatalf("short draw returned %d users", len(got))
	}
	if got := p.Draw(1); got != nil {
		t.Fatalf("empty pool returned %v", got)
	}
}

func TestChurnJoinLeave(t *testing.T) {
	p := NewChurnPool(ids(5), 3, ldprand.New(3))
	p.Advance(1)
	p.Join(99)
	if p.Census() != 6 || p.Available() != 6 {
		t.Fatal("fresh join not samplable")
	}
	p.Leave(99)
	if p.Census() != 5 || p.Available() != 5 {
		t.Fatal("leave not applied")
	}
	// Duplicate operations are no-ops.
	p.Leave(99)
	p.Join(0)
	if p.Census() != 5 || p.Available() != 5 {
		t.Fatal("duplicate ops changed state")
	}
}

func TestChurnRejoinCooldownPreventsDoubleReport(t *testing.T) {
	// A user who reports, leaves, and immediately rejoins must stay
	// unsamplable until w timestamps after the report.
	p := NewChurnPool([]int{7}, 5, ldprand.New(4))
	p.Advance(1)
	got := p.Draw(1)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("draw %v", got)
	}
	p.Leave(7)
	p.Advance(2)
	p.Join(7)
	for ts := 2; ts <= 5; ts++ {
		p.Advance(ts)
		if p.Available() != 0 {
			t.Fatalf("user 7 samplable at t=%d inside cooldown", ts)
		}
	}
	p.Advance(6) // 1 + w = 6: cooldown over
	if p.Available() != 1 {
		t.Fatal("user 7 not readmitted after cooldown")
	}
}

func TestChurnLPARunsUnderHeavyChurn(t *testing.T) {
	root := ldprand.New(5150)
	n, w, T := 3000, 8, 80
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	oracle := fo.NewGRR(2)
	m, err := NewChurnLPA(Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: root.Split()}, ids(n))
	if err != nil {
		t.Fatal(err)
	}
	acct := window.NewAccountant(1, w)
	churnSrc := root.Split()

	var current []int
	env := newSimEnv(n, oracle, root.Split(), &current, acct)
	buf := make([]int, n)
	for ts := 1; ts <= T; ts++ {
		vals, _ := s.Next(buf)
		current = vals
		env.Advance(ts)
		// 2% of users leave and 2% rejoin every timestamp.
		for i := 0; i < n/50; i++ {
			m.Pool().Leave(churnSrc.Intn(n))
			m.Pool().Join(churnSrc.Intn(n))
		}
		release, err := m.Step(env)
		if err != nil {
			t.Fatalf("t=%d: %v", ts, err)
		}
		if len(release) != 2 {
			t.Fatal("release shape")
		}
	}
	if v := acct.Violations(); len(v) != 0 {
		t.Fatalf("churn violated w-event LDP: %v", v[0])
	}
	if got := acct.MaxReports(); got > 1 {
		t.Fatalf("a user reported %d times in one window under churn", got)
	}
}

// TestChurnLPAApproximatesWhenThePopulationCollapses: once every member
// has left, the M1 draw comes back empty and the step re-releases r_{t-1}
// without asking anyone to report (an empty draw is not "everyone").
func TestChurnLPAApproximatesWhenThePopulationCollapses(t *testing.T) {
	const n, w = 40, 4
	oracle := fo.NewGRR(2)
	m, err := NewChurnLPA(Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: ldprand.New(6)}, ids(n))
	if err != nil {
		t.Fatal(err)
	}
	current := make([]int, n)
	env := newSimEnv(n, oracle, ldprand.New(7), &current, nil)
	env.Advance(1)
	first, err := m.Step(env)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		m.Pool().Leave(u)
	}
	reports := env.Stats().Reports
	env.Advance(2)
	got, err := m.Step(env)
	if err != nil || &got[0] != &first[0] {
		t.Fatalf("collapsed step: release %v (want r_1 itself), err %v", got, err)
	}
	if after := env.Stats().Reports; after != reports {
		t.Fatalf("collapsed step collected %d reports", after-reports)
	}
}

func TestChurnLPATracksStream(t *testing.T) {
	// Without churn, ChurnLPA should behave like a reasonable mechanism.
	root := ldprand.New(616)
	n, w, T := 20000, 10, 100
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	oracle := fo.NewGRR(2)
	m, err := NewChurnLPA(Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: root.Split()}, ids(n))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	res, err := r.Run(m, T)
	if err != nil {
		t.Fatal(err)
	}
	if got := mre(res); got > 0.5 {
		t.Fatalf("ChurnLPA MRE %v implausibly large without churn", got)
	}
}

func TestChurnLPAValidation(t *testing.T) {
	oracle := fo.NewGRR(2)
	if _, err := NewChurnLPA(Params{Eps: 1, W: 10, N: 5, Oracle: oracle, Src: ldprand.New(1)}, ids(5)); err == nil {
		t.Fatal("tiny initial population accepted")
	}
}

// TestChurnAdvanceDeterministic is the regression test for the
// map-iteration-order bug the determinism analyzer surfaced: Advance used
// to readmit cooled-down users in map order, so two identically-seeded
// pools could rebuild avail in different orders and Draw different user
// sets. Identical schedules must now yield identical draw sequences.
func TestChurnAdvanceDeterministic(t *testing.T) {
	run := func() [][]int {
		p := NewChurnPool(ids(200), 2, ldprand.New(42))
		var draws [][]int
		for step := 1; step <= 8; step++ {
			p.Advance(step)
			draws = append(draws, p.Draw(60))
		}
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("step %d: draw sizes differ: %d vs %d", i+1, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("step %d: identically-seeded pools drew different users: %v vs %v", i+1, a[i], b[i])
			}
		}
	}
}
