package mechanism

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

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

// TestLBAAuditedAtTruncatingPoint: at ε = 1, w = 11 an LBA claim kept in
// ε truncated (3u)/u to 2 earmarks, so the span nullified after such a
// publication came out one timestamp short and the next publication
// overspent its window by ε/2w. Counted in whole earmarks, no window
// overspends.
func TestLBAAuditedAtTruncatingPoint(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		if res := runOn(t, "LBA", 500, 11, 300, 1, seed); len(res.Violations) != 0 {
			t.Errorf("seed %d: %d violations, first: %v", seed, len(res.Violations), res.Violations[0])
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

// countingEnv counts the collection rounds a Step runs.
type countingEnv struct {
	Env
	rounds int
}

func (e *countingEnv) CollectStream(users []int, eps float64, agg fo.Aggregator) error {
	e.rounds++
	return e.Env.CollectStream(users, eps, agg)
}

// watched records, per Step, how many collection rounds it ran and a deep
// copy of its release taken the moment Step returned.
type watched struct {
	Mechanism
	rounds []int
	copies [][]float64
}

func (m *watched) Step(env Env) ([]float64, error) {
	ce := &countingEnv{Env: env}
	release, err := m.Mechanism.Step(ce)
	m.rounds = append(m.rounds, ce.rounds)
	m.copies = append(m.copies, slices.Clone(release))
	return release, err
}

// TestReleasesAreImmutable pins the release contract of Mechanism.Step for
// every method: no later Step writes into an earlier release, a
// publication is fresh storage, and an approximation is the previous
// release itself (r_t = r_{t-1}, allocating nothing). The stream switches
// between two distant distributions every w+1 timestamps, so the adaptive
// methods both publish and approximate within the run.
func TestReleasesAreImmutable(t *testing.T) {
	const n, w, T = 2000, 4, 6 * 4
	a := []float64{0.85, 0.05, 0.05, 0.05}
	b := []float64{0.05, 0.05, 0.05, 0.85}
	dist := func(t int) []float64 {
		if (t/(w+1))%2 == 0 {
			return a
		}
		return b
	}
	for _, name := range append(slices.Clone(Names), "ChurnLPA") {
		t.Run(name, func(t *testing.T) {
			root := ldprand.New(411)
			oracle := fo.NewGRR(4)
			p := Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: root.Split()}
			var m Mechanism
			var err error
			if name == "ChurnLPA" {
				initial := make([]int, n)
				for u := range initial {
					initial[u] = u
				}
				m, err = NewChurnLPA(p, initial)
			} else {
				m, err = New(name, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			wm := &watched{Mechanism: m}
			r := &Runner{Stream: stream.NewDistStream(n, 4, dist, root.Split()), Oracle: oracle, Src: root.Split()}
			res, err := r.Run(wm, T)
			if err != nil {
				t.Fatal(err)
			}
			// A publishing Step runs this many collection rounds (the
			// adaptive methods add one to their dissimilarity round); a
			// Step that runs fewer approximates.
			full := 2
			if name == "LBU" || name == "LSP" || name == "LPU" {
				full = 1
			}
			seen := map[*float64]int{}
			pubs, approxs := 0, 0
			for i, rel := range res.Released {
				switch {
				case wm.rounds[i] >= full:
					pubs++
					if j, ok := seen[&rel[0]]; ok {
						t.Fatalf("t=%d: publication reuses the storage of t=%d", i+1, j+1)
					}
				case i > 0:
					approxs++
					if &rel[0] != &res.Released[i-1][0] {
						t.Fatalf("t=%d: approximation is a copy, not the previous release", i+1)
					}
				}
				seen[&rel[0]] = i
			}
			for i, rel := range res.Released {
				for k := range rel {
					if math.Float64bits(rel[k]) != math.Float64bits(wm.copies[i][k]) {
						t.Fatalf("release t=%d changed after Step returned it: [%d] %v, was %v", i+1, k, rel[k], wm.copies[i][k])
					}
				}
			}
			if name != "LBU" && name != "LPU" && (pubs < 2 || approxs == 0) {
				t.Fatalf("%d publications and %d approximations after t=1: the stream must force both strategies", pubs, approxs)
			}
		})
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
	pool := &Pool{}
	r.record(1, []int{1, 2})
	r.record(1, []int{3})
	r.record(2, []int{4})
	r.recycle(1, pool)
	if fmt.Sprint(pool.avail) != "[1 2 3]" {
		t.Fatalf("recycle(1) returned %v", pool.avail)
	}
	r.recycle(1, pool)
	if len(pool.avail) != 3 {
		t.Fatal("double recycle returned users")
	}
	r.recycle(2, pool)
	if fmt.Sprint(pool.avail) != "[1 2 3 4]" {
		t.Fatalf("recycle(2) lost users: %v", pool.avail)
	}
	// A recycled slot keeps its array: recording as many users again
	// allocates nothing, and the pool holds its own copies.
	users, sink := []int{5, 6, 7}, &Pool{avail: make([]int, 0, 3)}
	if allocs := testing.AllocsPerRun(10, func() {
		r.record(4, users)
		r.recycle(4, sink)
		sink.avail = sink.avail[:0]
	}); allocs != 0 {
		t.Fatalf("record into a recycled slot allocates: %v allocs/run", allocs)
	}
	r.record(1, []int{8})
	if fmt.Sprint(pool.avail) != "[1 2 3 4]" {
		t.Fatalf("a reused slot wrote into the pool: %v", pool.avail)
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
// bound C(ε) is Inf/Inf, so a round would release NaN. LPU and LPA refuse
// the budget at construction with fo.ErrBadEpsilon, before any round.
func TestMeanOracleRefusesUnboundedBudget(t *testing.T) {
	for _, name := range []string{"LPU", "LPA"} {
		if _, err := New(name, Params{Eps: 1500, W: 4, N: 40, Oracle: fo.NewMean(), Src: ldprand.New(1)}); !errors.Is(err, fo.ErrBadEpsilon) {
			t.Fatalf("%s at eps=1500: err %v, want fo.ErrBadEpsilon", name, err)
		}
	}
}

// TestConstructorsRefuseSharesTheOracleRefuses: a budget whose smallest
// or largest per-round share the oracle would refuse fails construction,
// not a round. OUE refuses from ε ≈ 37 (its flip probability falls below
// the draws' resolution) and every oracle below ε ≈ 1e-16 (e^ε rounds to
// 1).
func TestConstructorsRefuseSharesTheOracleRefuses(t *testing.T) {
	oue := fo.NewOUE(8)
	for _, tc := range []struct {
		name string
		p    Params
		what string
	}{
		{"LBU", Params{Eps: 2e-16, W: 4, N: 40, Oracle: oue}, "ε/w below e^ε's resolution"},
		{"LBD", Params{Eps: 80, W: 1, N: 40, Oracle: oue}, "the M1 share ε/2w = 40"},
		{"LBA", Params{Eps: 1e-15, W: 10, N: 40, Oracle: oue}, "the M1 share ε/2w = 5e-17"},
		{"LBA", Params{Eps: 80, W: 2, N: 40, Oracle: oue}, "a claim of w earmarks, ε/2 = 40"},
		{"LSP", Params{Eps: 40, W: 4, N: 40, Oracle: oue}, "the whole ε"},
		{"LPU", Params{Eps: 40, W: 4, N: 40, Oracle: oue}, "the whole ε"},
		{"LPD", Params{Eps: 40, W: 4, N: 40, Oracle: oue}, "the whole ε"},
		{"LPA", Params{Eps: 40, W: 4, N: 40, Oracle: oue}, "the whole ε"},
		{"EventLevel", Params{Eps: 40, W: 4, N: 40, Oracle: oue}, "the whole ε"},
	} {
		tc.p.Src = ldprand.New(1)
		if _, err := New(tc.name, tc.p); !errors.Is(err, fo.ErrBadEpsilon) {
			t.Errorf("%s eps=%v w=%d (%s): err %v, want fo.ErrBadEpsilon", tc.name, tc.p.Eps, tc.p.W, tc.what, err)
		}
	}
	p := Params{Eps: 40, W: 4, N: 40, Oracle: oue, Src: ldprand.New(1)}
	if _, err := NewChurnLPA(p, ids(40)); !errors.Is(err, fo.ErrBadEpsilon) {
		t.Errorf("ChurnLPA eps=40: err %v, want fo.ErrBadEpsilon", err)
	}
	if _, err := NewUserLevelFinite(Params{Eps: 1, W: 4, N: 40, Oracle: oue, Src: ldprand.New(1)}, 1e17); !errors.Is(err, fo.ErrBadEpsilon) {
		t.Errorf("UserLevel eps/T = 1e-17: err %v, want fo.ErrBadEpsilon", err)
	}
	// The shares just inside the oracle's range construct.
	for _, name := range Names {
		if _, err := New(name, Params{Eps: 30, W: 4, N: 40, Oracle: oue, Src: ldprand.New(1)}); err != nil {
			t.Errorf("%s eps=30: %v", name, err)
		}
	}
}

// nanEnv hands out an aggregator whose estimate is not finite.
type nanEnv struct{ n int }

func (e nanEnv) T() int { return 1 }
func (e nanEnv) N() int { return e.n }
func (e nanEnv) NewRoundAggregator(fo.Oracle, float64) (fo.Aggregator, error) {
	return nanAggregator{}, nil
}
func (e nanEnv) CollectStream([]int, float64, fo.Aggregator) error { return nil }

type nanAggregator struct{}

func (nanAggregator) Add(fo.Report) error          { return nil }
func (nanAggregator) Reports() int                 { return 1 }
func (nanAggregator) Estimate() ([]float64, error) { return []float64{0.5, math.NaN()}, nil }

// TestNonFiniteEstimateFailsTheRound: a round whose estimate is not finite
// fails instead of reaching a release, whether it is a publication or the
// dissimilarity round.
func TestNonFiniteEstimateFailsTheRound(t *testing.T) {
	for _, name := range Names {
		m, err := New(name, Params{Eps: 1, W: 4, N: 40, Oracle: fo.NewGRR(2), Src: ldprand.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		if release, err := m.Step(nanEnv{40}); err == nil || release != nil {
			t.Errorf("%s released %v on a NaN estimate, err %v", name, release, err)
		}
	}
}
