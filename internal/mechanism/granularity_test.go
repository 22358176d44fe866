package mechanism

import (
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

func granRun(t *testing.T, m Mechanism, n, T int, eps float64, w int, seed uint64) (*RunResult, *window.Accountant) {
	t.Helper()
	root := ldprand.New(seed)
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	oracle := fo.NewGRR(2)
	acct := window.NewAccountant(eps, w)
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	res, err := r.Run(m, T)
	if err != nil {
		t.Fatal(err)
	}
	return res, acct
}

func TestEventLevelViolatesWEvent(t *testing.T) {
	// Event-level LDP must blow past the w-event budget: that is the
	// point of the baseline.
	root := ldprand.New(11)
	n := 500
	oracle := fo.NewGRR(2)
	m, err := NewEventLevel(Params{Eps: 1, W: 5, N: n, Oracle: oracle, Src: root.Split()})
	if err != nil {
		t.Fatal(err)
	}
	res, acct := granRun(t, m, n, 20, 1, 5, 12)
	if len(res.Violations) == 0 {
		t.Fatal("event-level baseline did not violate the w-event budget")
	}
	if spend := acct.MaxSpend(); spend < 4.9 {
		t.Fatalf("window spend %v, want ~w*eps=5", spend)
	}
}

func TestEventLevelBestUtility(t *testing.T) {
	// At the same nominal eps, event-level releases are far more
	// accurate than w-event LBU — the privacy/utility trade.
	root := ldprand.New(13)
	n := 20000
	oracle := fo.NewGRR(2)
	ev, _ := NewEventLevel(Params{Eps: 1, W: 20, N: n, Oracle: oracle, Src: root.Split()})
	lbu, _ := NewLBU(Params{Eps: 1, W: 20, N: n, Oracle: oracle, Src: root.Split()})
	evRes, _ := granRun(t, ev, n, 40, 1, 20, 14)
	lbuRes, _ := granRun(t, lbu, n, 40, 1, 20, 15)
	if mre(evRes) >= mre(lbuRes) {
		t.Fatalf("event-level MRE %v not below LBU %v", mre(evRes), mre(lbuRes))
	}
}

func TestUserLevelFiniteHorizon(t *testing.T) {
	root := ldprand.New(17)
	n := 1000
	oracle := fo.NewGRR(2)
	m, err := NewUserLevelFinite(Params{Eps: 1, W: 5, N: n, Oracle: oracle, Src: root.Split()}, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	if _, err := r.Run(m, 10); err != nil {
		t.Fatalf("within horizon: %v", err)
	}
	// The 11th step must fail: budget exhausted.
	current := make([]int, n)
	env := newSimEnv(n, oracle, root.Split(), &current, nil)
	env.Advance(11)
	if _, err := m.Step(env); err == nil {
		t.Fatal("user-level mechanism ran past its horizon")
	}
}

func TestUserLevelSatisfiesWEvent(t *testing.T) {
	// eps/T per step trivially satisfies any w <= T window budget.
	root := ldprand.New(19)
	n := 500
	oracle := fo.NewGRR(2)
	m, _ := NewUserLevelFinite(Params{Eps: 1, W: 10, N: n, Oracle: oracle, Src: root.Split()}, 50)
	res, _ := granRun(t, m, n, 50, 1, 10, 20)
	if len(res.Violations) != 0 {
		t.Fatalf("user-level violated: %v", res.Violations[0])
	}
}

func TestGranularityValidation(t *testing.T) {
	oracle := fo.NewGRR(2)
	if _, err := NewUserLevelFinite(Params{Eps: 1, W: 5, N: 10, Oracle: oracle, Src: ldprand.New(1)}, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewEventLevel(Params{}); err == nil {
		t.Fatal("empty params accepted")
	}
}
