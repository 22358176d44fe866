package mechanism

// Behavioral tests that verify the exact resource-allocation sequences the
// paper derives, using a noiseless fake oracle and a scripted environment
// so strategy decisions are deterministic:
//
//   - LBD distributes publication budget as ε/4, ε/8, ε/16, ... (§5.4.2)
//   - LBA publishes with exactly ε/(2w) per timestamp when every timestamp
//     demands publication, and absorbs skipped budget otherwise
//   - LPD distributes publication users as N/4, N/8, ... (§6.3.2)
//   - all adaptive methods approximate forever on a constant stream

import (
	"math"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// noiselessOracle reports values exactly and exposes a controllable
// variance, letting tests force publication (variance 0 => err 0 < dis) or
// approximation decisions deterministically.
type noiselessOracle struct {
	d int
	v float64 // reported variance per (eps, n)
}

func (o *noiselessOracle) Name() string { return "noiseless" }
func (o *noiselessOracle) Domain() int  { return o.d }
func (o *noiselessOracle) Perturb(v int, eps float64, src *ldprand.Source) fo.Report {
	return fo.Report{Value: v}
}
func (o *noiselessOracle) Estimate(reports []fo.Report, eps float64) ([]float64, error) {
	est := make([]float64, o.d)
	for _, r := range reports {
		est[r.Value]++
	}
	for k := range est {
		est[k] /= float64(len(reports))
	}
	return est, nil
}
func (o *noiselessOracle) Variance(eps float64, n int, fk float64) float64 { return o.v }
func (o *noiselessOracle) VarianceApprox(eps float64, n int) float64       { return o.v }

// noiselessAggregator folds exact value counts, mirroring Estimate.
type noiselessAggregator struct {
	counts []float64
	n      int
}

func (o *noiselessOracle) NewAggregator(eps float64) (fo.Aggregator, error) {
	return &noiselessAggregator{counts: make([]float64, o.d)}, nil
}

func (a *noiselessAggregator) Add(r fo.Report) error {
	a.counts[r.Value]++
	a.n++
	return nil
}

func (a *noiselessAggregator) Reports() int { return a.n }

func (a *noiselessAggregator) Estimate() ([]float64, error) {
	est := make([]float64, len(a.counts))
	for k, c := range a.counts {
		est[k] = c / float64(a.n)
	}
	return est, nil
}

// scriptedEnv serves values from a script (one histogram value per user per
// timestamp) and records every Collect call.
type scriptedEnv struct {
	t      int
	n      int
	values func(t, user int) int
	oracle fo.Oracle

	collects []collectCall
}

type collectCall struct {
	t     int
	users int // -1 means all
	eps   float64
}

func (e *scriptedEnv) T() int { return e.t }
func (e *scriptedEnv) N() int { return e.n }
func (e *scriptedEnv) NewRoundAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error) {
	return o.NewAggregator(eps)
}
func (e *scriptedEnv) CollectStream(users []int, eps float64, agg fo.Aggregator) error {
	nUsers := -1
	ids := users
	if users == nil {
		ids = make([]int, e.n)
		for i := range ids {
			ids[i] = i
		}
	} else {
		nUsers = len(users)
	}
	e.collects = append(e.collects, collectCall{t: e.t, users: nUsers, eps: eps})
	src := ldprand.New(1)
	for _, u := range ids {
		if err := agg.Add(e.oracle.Perturb(e.values(e.t, u), eps, src)); err != nil {
			return err
		}
	}
	return nil
}

// alternating values flip the whole population's value every timestamp, so
// the dissimilarity is always large and adaptive methods always prefer
// publication.
func alternating(t, user int) int { return t % 2 }

// constant values never change, so after the first publication the
// dissimilarity is ~0 and adaptive methods always approximate.
func constant(t, user int) int { return 1 }

func runScripted(t *testing.T, m Mechanism, env *scriptedEnv, T int) {
	t.Helper()
	for ts := 1; ts <= T; ts++ {
		env.t = ts
		if _, err := m.Step(env); err != nil {
			t.Fatalf("t=%d: %v", ts, err)
		}
	}
}

// m2Calls extracts the publication-phase collects (every second collect at
// timestamps where two collects happened).
func m2Calls(collects []collectCall) []collectCall {
	var out []collectCall
	byT := map[int][]collectCall{}
	for _, c := range collects {
		byT[c.t] = append(byT[c.t], c)
	}
	for t := 1; ; t++ {
		cs, ok := byT[t]
		if !ok {
			break
		}
		if len(cs) == 2 {
			out = append(out, cs[1])
		}
	}
	return out
}

func TestLBDBudgetSequence(t *testing.T) {
	// With dis always large, LBD publishes every timestamp; the paper's
	// budget sequence is eps/4, eps/8, eps/16, ...
	oracle := &noiselessOracle{d: 2, v: 0}
	eps, w := 1.0, 4
	env := &scriptedEnv{n: 100, values: alternating, oracle: oracle}
	m, err := NewLBD(Params{Eps: eps, W: w, N: 100, Oracle: oracle, Src: ldprand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, m, env, 3)
	pubs := m2Calls(env.collects)
	if len(pubs) != 3 {
		t.Fatalf("expected 3 publications, got %d", len(pubs))
	}
	want := []float64{eps / 4, eps / 8, eps / 16}
	for i, p := range pubs {
		if math.Abs(p.eps-want[i]) > 1e-12 {
			t.Errorf("publication %d budget %v want %v", i+1, p.eps, want[i])
		}
	}
}

func TestLBAUniformSequenceUnderConstantChange(t *testing.T) {
	// With dis always large, LBA publishes each timestamp with exactly
	// the per-timestamp earmark eps/(2w) — nothing to absorb.
	oracle := &noiselessOracle{d: 2, v: 0}
	eps, w := 1.0, 5
	env := &scriptedEnv{n: 100, values: alternating, oracle: oracle}
	m, err := NewLBA(Params{Eps: eps, W: w, N: 100, Oracle: oracle, Src: ldprand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, m, env, 5)
	pubs := m2Calls(env.collects)
	if len(pubs) != 5 {
		t.Fatalf("expected 5 publications, got %d", len(pubs))
	}
	unit := eps / (2 * float64(w))
	for i, p := range pubs {
		if math.Abs(p.eps-unit) > 1e-12 {
			t.Errorf("publication %d budget %v want %v", i+1, p.eps, unit)
		}
	}
}

func TestAdaptiveMethodsApproximateOnConstantStream(t *testing.T) {
	// After the initial publication (r_0 = 0 vs c = one-hot), a constant
	// stream yields dis ~ 0, so every adaptive method approximates.
	for _, name := range []string{"LBD", "LBA"} {
		oracle := &noiselessOracle{d: 2, v: 1e-9}
		env := &scriptedEnv{n: 100, values: constant, oracle: oracle}
		m, err := New(name, Params{Eps: 1, W: 4, N: 100, Oracle: oracle, Src: ldprand.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		runScripted(t, m, env, 10)
		pubs := m2Calls(env.collects)
		if len(pubs) != 1 {
			t.Errorf("%s: expected exactly 1 publication on constant stream, got %d", name, len(pubs))
		}
	}
}

func TestLPDPopulationSequence(t *testing.T) {
	// With dis always large, LPD's publication groups follow N/4, N/8,
	// ... of the publication population (paper §6.3.2).
	oracle := &noiselessOracle{d: 2, v: 0}
	n, w := 800, 4
	env := &scriptedEnv{n: n, values: alternating, oracle: oracle}
	m, err := NewLPD(Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: ldprand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, m, env, 3)
	pubs := m2Calls(env.collects)
	if len(pubs) != 3 {
		t.Fatalf("expected 3 publications, got %d", len(pubs))
	}
	want := []int{n / 4, n / 8, n / 16}
	for i, p := range pubs {
		if p.users != want[i] {
			t.Errorf("publication %d used %d users, want %d", i+1, p.users, want[i])
		}
	}
}

func TestLPAEarmarkSequence(t *testing.T) {
	// With dis always large, LPA publishes each timestamp with exactly
	// the per-timestamp user earmark ⌊N/(2w)⌋.
	oracle := &noiselessOracle{d: 2, v: 0}
	n, w := 800, 4
	env := &scriptedEnv{n: n, values: alternating, oracle: oracle}
	m, err := NewLPA(Params{Eps: 1, W: w, N: n, Oracle: oracle, Src: ldprand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, m, env, 2*w)
	pubs := m2Calls(env.collects)
	if len(pubs) != 2*w {
		t.Fatalf("expected %d publications, got %d", 2*w, len(pubs))
	}
	unit := n / (2 * w)
	for i, p := range pubs {
		if p.users != unit {
			t.Errorf("publication %d used %d users, want %d", i+1, p.users, unit)
		}
	}
}

func TestLBAAbsorptionAfterQuietPeriod(t *testing.T) {
	// Quiet for k timestamps then a burst: the burst publication must
	// absorb the skipped earmarks (budget (k+1)·ε/(2w)), then nullify.
	oracle := &noiselessOracle{d: 2, v: 1e-9}
	eps, w := 1.0, 6
	quiet := 3
	values := func(t, user int) int {
		if t <= quiet {
			return 1 // constant: approximate (after t=1's initial pub)
		}
		return t % 2 // burst: publish
	}
	env := &scriptedEnv{n: 100, values: values, oracle: oracle}
	m, err := NewLBA(Params{Eps: eps, W: w, N: 100, Oracle: oracle, Src: ldprand.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	runScripted(t, m, env, quiet+2)
	pubs := m2Calls(env.collects)
	// t=1 initial publication (r0=0), then the burst at t=quiet+1.
	if len(pubs) < 2 {
		t.Fatalf("expected >= 2 publications, got %d", len(pubs))
	}
	unit := eps / (2 * float64(w))
	burst := pubs[1]
	// t=1 published with 1 unit -> tN=0; absorbed t=2..quiet+1 relative
	// to l+tN: tA = (quiet+1) - 1 = quiet earmarks... the exact count:
	wantUnits := float64(quiet)
	if math.Abs(burst.eps-unit*wantUnits) > 1e-12 {
		t.Errorf("burst publication budget %v want %v (=%v units)",
			burst.eps, unit*wantUnits, wantUnits)
	}
}
