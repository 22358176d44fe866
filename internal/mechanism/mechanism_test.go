package mechanism

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

// runOn executes the named mechanism over a binary Sin stream and returns
// the result with auditing enabled.
func runOn(t *testing.T, name string, n, w, T int, eps float64, seed uint64) *RunResult {
	t.Helper()
	root := ldprand.New(seed)
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	oracle := fo.NewGRR(2)
	p := Params{Eps: eps, W: w, N: n, Oracle: oracle, Src: root.Split()}
	m, err := New(name, p)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	acct := window.NewAccountant(eps, w)
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	res, err := r.Run(m, T)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

// mre computes the mean relative error of a run over elements with
// non-negligible true frequency.
func mre(res *RunResult) float64 {
	sum, cnt := 0.0, 0
	for t := range res.True {
		for k := range res.True[t] {
			c := res.True[t][k]
			if c < 0.01 {
				continue
			}
			sum += math.Abs(res.Released[t][k]-c) / c
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

func TestAllMechanismsRunAndSatisfyWEventLDP(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runOn(t, name, 4000, 10, 60, 1.0, 777)
			if len(res.Released) != 60 {
				t.Fatalf("released %d timestamps", len(res.Released))
			}
			if len(res.Violations) != 0 {
				t.Fatalf("w-event LDP violated: %v", res.Violations[0])
			}
		})
	}
}

func TestPrivacyHoldsAcrossParameters(t *testing.T) {
	// Sweep (eps, w) across realistic ranges; the audited invariant must
	// hold everywhere.
	for _, eps := range []float64{0.5, 1, 2.5} {
		for _, w := range []int{2, 5, 20} {
			for _, name := range Names {
				res := runOn(t, name, 1200, w, 3*w+7, eps, uint64(100*w)+uint64(eps*10))
				if len(res.Violations) != 0 {
					t.Fatalf("%s eps=%v w=%d: %v", name, eps, w, res.Violations[0])
				}
			}
		}
	}
}

func TestPopulationMethodsReportAtMostOncePerWindow(t *testing.T) {
	for _, name := range PopulationDivisionNames {
		root := ldprand.New(991)
		n, w, T := 2000, 8, 50
		s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
		oracle := fo.NewGRR(2)
		m, err := New(name, Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: root.Split()})
		if err != nil {
			t.Fatal(err)
		}
		acct := window.NewAccountant(1, w)
		r := &Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
		if _, err := r.Run(m, T); err != nil {
			t.Fatal(err)
		}
		if got := acct.MaxReports(); got > 1 {
			t.Errorf("%s: a user reported %d times in one window", name, got)
		}
	}
}

func TestBudgetMethodsUseBudgetEveryTimestamp(t *testing.T) {
	// LBU/LBD/LBA have every user reporting at every timestamp (at least
	// the dissimilarity report), so CFPU >= 1.
	for _, name := range BudgetDivisionNames {
		res := runOn(t, name, 500, 5, 30, 1.0, 555)
		if res.Comm.CFPU < 0.999 {
			t.Errorf("%s: CFPU %.3f < 1", name, res.Comm.CFPU)
		}
	}
}

func TestPopulationMethodsCommunicateLess(t *testing.T) {
	// Population division: CFPU ≈ 1/w or below-ish (LPD < 1/w; LPA
	// between 1/2w and 1/w + w+m/4w^2).
	w := 10
	for _, name := range PopulationDivisionNames {
		res := runOn(t, name, 5000, w, 60, 1.0, 333)
		if res.Comm.CFPU > 1.5/float64(w) {
			t.Errorf("%s: CFPU %.4f exceeds 1.5/w", name, res.Comm.CFPU)
		}
	}
}

func TestLSPReleasesChangeOnlyAtSamplingPoints(t *testing.T) {
	res := runOn(t, "LSP", 1000, 5, 20, 1.0, 222)
	for ts := 0; ts < 20; ts++ {
		if ts%5 == 0 {
			continue // sampling timestamp: fresh release
		}
		for k := range res.Released[ts] {
			if res.Released[ts][k] != res.Released[ts-1][k] {
				t.Fatalf("LSP changed release at non-sampling t=%d", ts+1)
			}
		}
	}
}

func TestLPUFreshEveryTimestamp(t *testing.T) {
	// LPU publishes fresh estimates each timestamp; consecutive releases
	// should (almost surely) differ.
	res := runOn(t, "LPU", 4000, 8, 20, 1.0, 111)
	changes := 0
	for ts := 1; ts < 20; ts++ {
		for k := range res.Released[ts] {
			if res.Released[ts][k] != res.Released[ts-1][k] {
				changes++
				break
			}
		}
	}
	if changes < 15 {
		t.Fatalf("LPU releases changed only %d/19 times", changes)
	}
}

func TestMechanismUtilityOrdering(t *testing.T) {
	// The paper's headline: population division beats budget division.
	// Compare LPU vs LBU and LPA vs LBA on the same stream shape.
	avg := func(name string) float64 {
		total := 0.0
		const reps = 3
		for i := 0; i < reps; i++ {
			res := runOn(t, name, 20000, 20, 80, 1.0, 4000+uint64(i))
			total += mre(res)
		}
		return total / reps
	}
	lbu, lpu := avg("LBU"), avg("LPU")
	if lpu >= lbu {
		t.Errorf("LPU MRE %.4f not below LBU %.4f", lpu, lbu)
	}
	lba, lpa := avg("LBA"), avg("LPA")
	if lpa >= lba {
		t.Errorf("LPA MRE %.4f not below LBA %.4f", lpa, lba)
	}
}

func TestAdaptiveBeatsUniformOnSmoothStream(t *testing.T) {
	// On a nearly-constant stream, adaptive methods should approximate
	// often and beat the uniform baseline.
	root := ldprand.New(808)
	n, w, T := 20000, 20, 100
	oracle := fo.NewGRR(2)
	run := func(name string) float64 {
		s := stream.NewBinaryStream(n, stream.NewSin(0.001, 0.01, 0.1), ldprand.New(909).Split())
		m, err := New(name, Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: root.Split()})
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Stream: s, Oracle: oracle, Src: root.Split()}
		res, err := r.Run(m, T)
		if err != nil {
			t.Fatal(err)
		}
		return mre(res)
	}
	lpu, lpa := run("LPU"), run("LPA")
	if lpa >= lpu {
		t.Errorf("on a flat stream LPA MRE %.4f should beat LPU %.4f", lpa, lpu)
	}
}

func TestReleasesAreIndependentCopies(t *testing.T) {
	// Mutating a returned release must not corrupt mechanism state.
	root := ldprand.New(404)
	n := 1000
	s := stream.NewBinaryStream(n, stream.DefaultSin(), root.Split())
	oracle := fo.NewGRR(2)
	m, _ := NewLSP(Params{Eps: 1, W: 4, N: n, Oracle: oracle, Src: root.Split()})
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	res, err := r.Run(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	res.Released[1][0] = 999
	if res.Released[2][0] == 999 {
		t.Fatal("releases alias each other")
	}
}

func TestParamValidation(t *testing.T) {
	src := ldprand.New(1)
	oracle := fo.NewGRR(2)
	good := Params{Eps: 1, W: 5, N: 100, Oracle: oracle, Src: src}
	for _, name := range Names {
		if _, err := New(name, good); err != nil {
			t.Errorf("%s rejected valid params: %v", name, err)
		}
	}
	bads := []Params{
		{Eps: 0, W: 5, N: 100, Oracle: oracle, Src: src},
		{Eps: math.NaN(), W: 5, N: 100, Oracle: oracle, Src: src},
		{Eps: math.Inf(1), W: 5, N: 100, Oracle: oracle, Src: src},
		{Eps: 1, W: 0, N: 100, Oracle: oracle, Src: src},
		{Eps: 1, W: 5, N: 0, Oracle: oracle, Src: src},
		{Eps: 1, W: 5, N: 100, Oracle: nil, Src: src},
		{Eps: 1, W: 5, N: 100, Oracle: oracle, Src: nil},
	}
	for i, bad := range bads {
		if _, err := NewLBD(bad); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
		if _, err := NewLBU(bad); err == nil {
			t.Errorf("LBU accepted bad params %d", i)
		}
	}
	if _, err := New("XXX", good); err == nil {
		t.Error("unknown mechanism name accepted")
	}
	// Population methods need enough users per group.
	if _, err := NewLPD(Params{Eps: 1, W: 50, N: 60, Oracle: oracle, Src: src}); err == nil {
		t.Error("LPD accepted N < 2w")
	}
	if _, err := NewLPA(Params{Eps: 1, W: 50, N: 60, Oracle: oracle, Src: src}); err == nil {
		t.Error("LPA accepted N < 2w")
	}
	if _, err := NewLPU(Params{Eps: 1, W: 50, N: 20, Oracle: oracle, Src: src}); err == nil {
		t.Error("LPU accepted N < w")
	}
}

func TestPoolDrawReturn(t *testing.T) {
	src := ldprand.New(13)
	p := NewPool(10, src)
	if p.Available() != 10 {
		t.Fatal("initial availability")
	}
	u, err := p.Draw(4)
	if err != nil || len(u) != 4 {
		t.Fatalf("draw: %v %v", u, err)
	}
	if p.Available() != 6 {
		t.Fatal("availability after draw")
	}
	seen := map[int]bool{}
	for _, x := range u {
		if x < 0 || x >= 10 || seen[x] {
			t.Fatalf("bad draw %v", u)
		}
		seen[x] = true
	}
	if _, err := p.Draw(7); err == nil {
		t.Fatal("overdraw accepted")
	}
	p.Return(u)
	if p.Available() != 10 {
		t.Fatal("availability after return")
	}
	if _, err := p.Draw(-1); err == nil {
		t.Fatal("negative draw accepted")
	}
}

func TestPoolDrawDisjoint(t *testing.T) {
	src := ldprand.New(17)
	p := NewPool(100, src)
	a, _ := p.Draw(30)
	b, _ := p.Draw(30)
	inA := map[int]bool{}
	for _, x := range a {
		inA[x] = true
	}
	for _, x := range b {
		if inA[x] {
			t.Fatalf("user %d drawn twice without return", x)
		}
	}
}

func TestUsedRing(t *testing.T) {
	r := newUsedRing(3)
	r.record(1, []int{1, 2})
	r.record(1, []int{3})
	r.record(2, []int{4})
	got := r.take(1)
	if len(got) != 3 {
		t.Fatalf("take(1) = %v", got)
	}
	if len(r.take(1)) != 0 {
		t.Fatal("double take returned users")
	}
	if len(r.take(2)) != 1 {
		t.Fatal("take(2) lost users")
	}
}

func TestDissimilarityUnbiasedOnStaticStream(t *testing.T) {
	// With c_t == r_l exactly, E[dis] should be ~0 (the variance term
	// cancels the squared noise).
	root := ldprand.New(606)
	oracle := fo.NewGRR(2)
	trueHist := []float64{0.9, 0.1}
	n := 5000
	eps := 1.0
	sum := 0.0
	const reps = 400
	src := root.Split()
	for i := 0; i < reps; i++ {
		reports := make([]fo.Report, n)
		for u := 0; u < n; u++ {
			v := 0
			if src.Bernoulli(trueHist[1]) {
				v = 1
			}
			reports[u] = oracle.Perturb(v, eps, src)
		}
		est, err := oracle.Estimate(reports, eps)
		if err != nil {
			t.Fatal(err)
		}
		sum += dissimilarity(est, trueHist, oracle.VarianceApprox(eps, n))
	}
	mean := sum / reps
	// The residual is the data-sampling variance f(1-f)/n ≈ 1.8e-5.
	if math.Abs(mean) > 2e-4 {
		t.Fatalf("dissimilarity mean %v not ~0 on static stream", mean)
	}
}

func TestLBADissimilarBudgetLedgerWithinCap(t *testing.T) {
	// Run LBA and inspect that publications never exceed eps/2 within a
	// window via the accountant's max spend.
	root := ldprand.New(515)
	n, w := 3000, 6
	s := stream.NewBinaryStream(n, stream.DefaultLNS(root.Split()), root.Split())
	oracle := fo.NewGRR(2)
	m, _ := NewLBA(Params{Eps: 2, W: w, N: n, Oracle: oracle, Src: root.Split()})
	acct := window.NewAccountant(2, w)
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	if _, err := r.Run(m, 50); err != nil {
		t.Fatal(err)
	}
	if v := acct.Violations(); len(v) != 0 {
		t.Fatalf("LBA violated budget: %v", v[0])
	}
	if spend := acct.MaxSpend(); spend > 2+1e-9 {
		t.Fatalf("max window spend %v > eps", spend)
	}
}

func TestRunnerStopsAtStreamEnd(t *testing.T) {
	root := ldprand.New(616)
	n := 200
	s := stream.Limit(stream.NewBinaryStream(n, stream.DefaultSin(), root.Split()), 5)
	oracle := fo.NewGRR(2)
	m, _ := NewLBU(Params{Eps: 1, W: 3, N: n, Oracle: oracle, Src: root.Split()})
	r := &Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	res, err := r.Run(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Released) != 5 {
		t.Fatalf("run produced %d timestamps, want 5 (stream end)", len(res.Released))
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runOn(t, "LPA", 1500, 6, 30, 1.0, 2024)
	b := runOn(t, "LPA", 1500, 6, 30, 1.0, 2024)
	for ts := range a.Released {
		for k := range a.Released[ts] {
			if a.Released[ts][k] != b.Released[ts][k] {
				t.Fatalf("same-seed runs diverged at t=%d", ts+1)
			}
		}
	}
}

func TestCollectRejectsBadRequests(t *testing.T) {
	current := make([]int, 10)
	env := newSimEnv(10, fo.NewGRR(2), ldprand.New(1), &current, nil)
	env.Advance(1)
	agg, err := fo.NewGRR(2).NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := env.CollectStream(nil, eps, agg); err == nil {
			t.Fatalf("eps %v accepted", eps)
		}
	}
	if err := env.CollectStream([]int{99}, 1, agg); err == nil {
		t.Fatal("unknown user accepted")
	}
}

// hookMech is a scripted mechanism for testing Hooked: it releases a fixed
// vector and can be told to fail.
type hookMech struct {
	release []float64
	fail    bool
}

func (m *hookMech) Name() string { return "hook" }
func (m *hookMech) Step(env Env) ([]float64, error) {
	if m.fail {
		return nil, errHook
	}
	return m.release, nil
}

var errHook = fmt.Errorf("hook mechanism failure")

func TestHookedReleaseHook(t *testing.T) {
	inner := &hookMech{release: []float64{0.25, 0.75}}
	var gotT int
	var gotRelease []float64
	h := Hooked{Mechanism: inner, OnRelease: func(ts int, r []float64) {
		gotT = ts
		gotRelease = append([]float64(nil), r...)
	}}
	if h.Name() != "hook" {
		t.Fatalf("Hooked.Name = %q", h.Name())
	}
	current := make([]int, 4)
	env := newSimEnv(4, fo.NewGRR(2), ldprand.New(1), &current, nil)
	env.Advance(7)
	release, err := h.Step(env)
	if err != nil {
		t.Fatal(err)
	}
	if gotT != 7 {
		t.Fatalf("hook saw t=%d, want 7", gotT)
	}
	if len(gotRelease) != 2 || gotRelease[0] != release[0] || gotRelease[1] != release[1] {
		t.Fatalf("hook saw release %v, want %v", gotRelease, release)
	}

	// Failed steps skip the hook.
	inner.fail = true
	called := false
	h = Hooked{Mechanism: inner, OnRelease: func(int, []float64) { called = true }}
	if _, err := h.Step(env); err == nil {
		t.Fatal("failing step succeeded")
	}
	if called {
		t.Fatal("hook invoked on a failed step")
	}

	// A nil hook is a no-op decoration.
	inner.fail = false
	if _, err := (Hooked{Mechanism: inner}).Step(env); err != nil {
		t.Fatal(err)
	}
}

// TestMeanOracleRefusesUnboundedBudget: at ε = 1500 the Mean oracle's
// bound C(ε) is Inf/Inf, so a round would release NaN. LPU and LPA fail
// their first Step with fo.ErrBadEpsilon instead, before any user
// perturbs, and release nothing.
func TestMeanOracleRefusesUnboundedBudget(t *testing.T) {
	o := fo.NewMean()
	for _, name := range []string{"LPU", "LPA"} {
		m, err := New(name, Params{Eps: 1500, W: 4, N: 40, Oracle: o, Src: ldprand.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		perturbed := 0
		env := collect.NewEnv(&collect.Sim{Users: 40, Report: func(_, _ int, eps float64) fo.Report {
			perturbed++
			return o.PerturbValue(0, eps, ldprand.New(2))
		}})
		env.Advance(1)
		release, err := m.Step(env)
		if !errors.Is(err, fo.ErrBadEpsilon) || release != nil || perturbed != 0 {
			t.Fatalf("%s at eps=1500: release %v, err %v, %d users perturbed", name, release, err, perturbed)
		}
	}
}
