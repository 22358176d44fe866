// Package numeric extends LDP-IDS from frequency to mean estimation, the
// other aggregate the paper's problem statement covers ("other aggregate
// analyses, such as count and mean estimation, can be applicable", §4):
// users hold real values in [-1, 1]; the aggregator estimates the
// population mean per timestamp under w-event ε-LDP.
//
// Two standard one-dimensional LDP mean perturbers are provided — Duchi et
// al.'s binary mechanism and the Piecewise Mechanism (PM) of Wang et al. —
// plus streaming mean mechanisms that port the paper's population-division
// framework (uniform and absorption variants) to the numeric setting. Mean
// mechanisms step through a backend-agnostic Env, so they run over any
// collect.Collector — the in-process simulation, the in-memory channel
// backend, or the HTTP backend.
package numeric

import (
	"errors"
	"fmt"
	"math"

	"ldpids/internal/collect"
	"ldpids/internal/ldprand"
	"ldpids/internal/window"
)

// Perturber is a one-shot LDP mechanism for a value v ∈ [-1, 1] whose
// output is an unbiased estimate of v.
type Perturber interface {
	// Name returns the mechanism's short name.
	Name() string
	// Perturb randomizes v with budget eps.
	Perturb(v, eps float64, src *ldprand.Source) float64
	// WorstVariance returns the per-report variance bound over v ∈
	// [-1, 1], used for publication-error estimates.
	WorstVariance(eps float64) float64
}

func checkValue(v float64) {
	if v < -1 || v > 1 || math.IsNaN(v) {
		panic(fmt.Sprintf("numeric: value %v outside [-1, 1]", v))
	}
}

// ---------------------------------------------------------------------------
// Duchi et al.'s binary mechanism.
// ---------------------------------------------------------------------------

// Duchi outputs ±(e^ε+1)/(e^ε-1), choosing the positive pole with
// probability (1 + v·(e^ε-1)/(e^ε+1))/2; the output is an unbiased
// estimator of v with variance C² − v² where C is the pole magnitude.
type Duchi struct{}

// Name implements Perturber.
func (Duchi) Name() string { return "Duchi" }

// Perturb implements Perturber.
func (Duchi) Perturb(v, eps float64, src *ldprand.Source) float64 {
	checkValue(v)
	e := math.Exp(eps)
	c := (e + 1) / (e - 1)
	pPos := 0.5 * (1 + v/c)
	if src.Bernoulli(pPos) {
		return c
	}
	return -c
}

// WorstVariance implements Perturber: C² − v² is maximal at v = 0.
func (Duchi) WorstVariance(eps float64) float64 {
	e := math.Exp(eps)
	c := (e + 1) / (e - 1)
	return c * c
}

// ---------------------------------------------------------------------------
// Piecewise Mechanism (Wang et al., ICDE 2019).
// ---------------------------------------------------------------------------

// Piecewise outputs a value in [-C, C] with a density concentrated in an
// interval around v: with probability e^{ε/2}/(e^{ε/2}+1) the output is
// uniform on [l(v), r(v)] (width C−1 around the scaled v), otherwise
// uniform on the complement. It is unbiased with lower variance than Duchi
// for moderate-to-large ε.
type Piecewise struct{}

// Name implements Perturber.
func (Piecewise) Name() string { return "Piecewise" }

// Perturb implements Perturber.
func (Piecewise) Perturb(v, eps float64, src *ldprand.Source) float64 {
	checkValue(v)
	e2 := math.Exp(eps / 2)
	c := (e2 + 1) / (e2 - 1)
	l := (c+1)/2*v - (c-1)/2
	r := l + c - 1
	if src.Bernoulli(e2 / (e2 + 1)) {
		return l + src.Float64()*(r-l)
	}
	// Uniform on [-C, l) ∪ (r, C]; the two segments have total length
	// (l - (-c)) + (c - r) = 2c - (r - l) - ... pick proportionally.
	left := l - (-c)
	right := c - r
	u := src.Float64() * (left + right)
	if u < left {
		return -c + u
	}
	return r + (u - left)
}

// WorstVariance implements Perturber: the PM variance
// v²/(e^{ε/2}−1) + (e^{ε/2}+3)/(3(e^{ε/2}−1)²) is maximal at |v| = 1.
func (Piecewise) WorstVariance(eps float64) float64 {
	e2 := math.Exp(eps / 2)
	return 1/(e2-1) + (e2+3)/(3*(e2-1)*(e2-1))
}

// BestPerturber picks Duchi for small ε and Piecewise for larger ε,
// following the crossover of their worst-case variances.
func BestPerturber(eps float64) Perturber {
	d, p := Duchi{}, Piecewise{}
	if d.WorstVariance(eps) <= p.WorstVariance(eps) {
		return d
	}
	return p
}

// ---------------------------------------------------------------------------
// Numeric streams.
// ---------------------------------------------------------------------------

// Stream produces each user's true value in [-1, 1] per timestamp.
type Stream interface {
	// N returns the population size.
	N() int
	// Next fills dst with the next timestamp's values.
	Next(dst []float64) ([]float64, bool)
}

// WalkStream gives each user a clamped random walk plus a shared
// sinusoidal drift, producing a population mean that oscillates smoothly —
// the numeric analogue of the Sin dataset.
type WalkStream struct {
	n    int
	step float64
	amp  float64
	rate float64
	vals []float64
	base []float64
	t    int
	src  *ldprand.Source
}

// NewWalkStream returns a stream of n users whose personal values random-
// walk with the given step size around a shared drift amp·sin(rate·t).
func NewWalkStream(n int, step, amp, rate float64, src *ldprand.Source) *WalkStream {
	if n <= 0 {
		panic("numeric: population must be positive")
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = src.Float64()*0.6 - 0.3
	}
	return &WalkStream{
		n: n, step: step, amp: amp, rate: rate,
		vals: make([]float64, n), base: base, src: src,
	}
}

// N implements Stream.
func (w *WalkStream) N() int { return w.n }

// Next implements Stream.
func (w *WalkStream) Next(dst []float64) ([]float64, bool) {
	if cap(dst) < w.n {
		dst = make([]float64, w.n)
	}
	dst = dst[:w.n]
	w.t++
	drift := w.amp * math.Sin(w.rate*float64(w.t))
	for i := range w.base {
		w.base[i] += w.src.NormalScaled(0, w.step)
		if w.base[i] > 1 {
			w.base[i] = 1
		}
		if w.base[i] < -1 {
			w.base[i] = -1
		}
		v := w.base[i] + drift
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		dst[i] = v
	}
	return dst, true
}

// Mean returns the mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---------------------------------------------------------------------------
// Streaming mean mechanisms under w-event LDP (population division).
// ---------------------------------------------------------------------------

// Env is the world a mean mechanism interacts with at one timestamp: the
// user population reachable through a numeric LDP perturber. collect.Env
// satisfies it for any collect.Collector backend, so the same mechanism
// runs over the in-process simulation or the HTTP backend.
type Env interface {
	// T returns the current (1-based) timestamp.
	T() int
	// N returns the total user population size.
	N() int
	// CollectMean asks the given users (nil means all) to perturb their
	// current value with budget eps and returns the mean of the perturbed
	// contributions together with the contribution count.
	CollectMean(users []int, eps float64) (mean float64, count int, err error)
}

// MeanMechanism releases one mean estimate per timestamp under w-event
// ε-LDP. Step must be called once per timestamp, in order; the mechanism
// only ever sees perturbed contributions through env.
type MeanMechanism interface {
	// Name returns the method's short name.
	Name() string
	// Step processes the next timestamp through env and returns the
	// released mean.
	Step(env Env) (float64, error)
}

// MeanParams configures a streaming mean mechanism.
type MeanParams struct {
	// Eps is the per-window budget; W the window size; N the population.
	Eps float64
	W   int
	N   int
	// Perturber is the one-shot mean mechanism (nil = BestPerturber).
	Perturber Perturber
	// Src drives sampling and perturbation.
	Src *ldprand.Source
}

func (p *MeanParams) validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
		return fmt.Errorf("numeric: eps must be positive and finite, got %v", p.Eps)
	}
	if p.W < 1 || p.N < 1 || p.Src == nil {
		return errors.New("numeric: invalid mean params")
	}
	if p.Perturber == nil {
		p.Perturber = BestPerturber(p.Eps)
	}
	return nil
}

// MeanLPU is the population-uniform streaming mean: w disjoint groups,
// one reporting per timestamp with the full ε.
type MeanLPU struct {
	p      MeanParams
	groups [][]int
	t      int
}

// NewMeanLPU constructs the uniform population-division mean mechanism.
func NewMeanLPU(p MeanParams) (*MeanLPU, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < p.W {
		return nil, fmt.Errorf("numeric: MeanLPU needs N >= w, got N=%d w=%d", p.N, p.W)
	}
	perm := p.Src.Perm(p.N)
	groups := make([][]int, p.W)
	for i, u := range perm {
		groups[i%p.W] = append(groups[i%p.W], u)
	}
	return &MeanLPU{p: p, groups: groups}, nil
}

// Name implements MeanMechanism.
func (m *MeanLPU) Name() string { return "MeanLPU" }

// Step implements MeanMechanism.
func (m *MeanLPU) Step(env Env) (float64, error) {
	g := m.t % m.p.W
	m.t++
	mean, _, err := env.CollectMean(m.groups[g], m.p.Eps)
	return mean, err
}

// MeanLPA ports the population-absorption strategy (Algorithm 4) to mean
// estimation: per-timestamp dissimilarity groups estimate (mean_t − r_l)²,
// and publications absorb earmarked users of approximated timestamps.
type MeanLPA struct {
	p            MeanParams
	pool         *meanPool
	last         float64
	t            int
	lastPub      int
	lastPubUsers int
	m1Size       int
	pubUnit      int
	ledger       *window.Ledger
}

// meanPool reuses the sampling-with-recycling logic for numeric users.
type meanPool struct {
	avail []int
	used  [][]int
	w     int
	src   *ldprand.Source
}

func newMeanPool(n, w int, src *ldprand.Source) *meanPool {
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	return &meanPool{avail: avail, used: make([][]int, w), w: w, src: src}
}

func (p *meanPool) draw(t, k int) []int {
	if k > len(p.avail) {
		k = len(p.avail)
	}
	n := len(p.avail)
	for i := 0; i < k; i++ {
		j := p.src.Intn(n - i)
		p.avail[n-1-i], p.avail[j] = p.avail[j], p.avail[n-1-i]
	}
	out := make([]int, k)
	copy(out, p.avail[n-k:])
	p.avail = p.avail[:n-k]
	p.used[t%p.w] = append(p.used[t%p.w], out...)
	return out
}

func (p *meanPool) recycle(t int) {
	i := t % p.w
	p.avail = append(p.avail, p.used[i]...)
	p.used[i] = nil
}

// NewMeanLPA constructs the adaptive population-division mean mechanism.
func NewMeanLPA(p MeanParams) (*MeanLPA, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if p.N < 2*p.W {
		return nil, fmt.Errorf("numeric: MeanLPA needs N >= 2w, got N=%d w=%d", p.N, p.W)
	}
	unit := p.N / (2 * p.W)
	return &MeanLPA{
		p:       p,
		pool:    newMeanPool(p.N, p.W, p.Src.Split()),
		m1Size:  unit,
		pubUnit: unit,
		ledger:  window.NewLedger(p.W),
	}, nil
}

// Name implements MeanMechanism.
func (m *MeanLPA) Name() string { return "MeanLPA" }

// Step implements MeanMechanism.
func (m *MeanLPA) Step(env Env) (float64, error) {
	m.t++
	// M1: dissimilarity estimate, debiased by the estimator variance.
	u1 := m.pool.draw(m.t, m.m1Size)
	est, _, err := env.CollectMean(u1, m.p.Eps)
	if err != nil {
		return 0, err
	}
	estVar := m.p.Perturber.WorstVariance(m.p.Eps) / float64(len(u1))
	dis := (est-m.last)*(est-m.last) - estVar

	release, err := m.step2(env, dis)
	if err != nil {
		return 0, err
	}
	if m.t >= m.p.W {
		m.pool.recycle(m.t - m.p.W + 1)
	}
	return release, nil
}

func (m *MeanLPA) step2(env Env, dis float64) (float64, error) {
	tN := 0
	if m.lastPubUsers > 0 {
		tN = m.lastPubUsers/m.pubUnit - 1
	}
	if m.lastPub > 0 && m.t-m.lastPub <= tN {
		return m.last, nil
	}
	tA := m.t - (m.lastPub + tN)
	if tA > m.p.W {
		tA = m.p.W
	}
	nPP := m.pubUnit * tA
	errPub := math.Inf(1)
	if nPP > 0 {
		errPub = m.p.Perturber.WorstVariance(m.p.Eps) / float64(nPP)
	}
	if dis > errPub {
		u2 := m.pool.draw(m.t, nPP)
		mean, count, err := env.CollectMean(u2, m.p.Eps)
		if err != nil {
			return 0, err
		}
		m.last = mean
		m.lastPub = m.t
		m.lastPubUsers = count
	}
	return m.last, nil
}

// SimEnv returns an in-process collect environment for mean mechanisms:
// user u perturbs the value behind (*current)[u] with p's perturber and
// randomness. Callers update *current and call Advance once per timestamp.
// Pass the same MeanParams the mechanism was built with so the
// perturbation randomness is shared with its sampling source, keeping runs
// deterministic.
func SimEnv(p MeanParams, current *[]float64) (*collect.Env, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	sim := &collect.Sim{
		Users: p.N,
		NumericReport: func(u, _ int, eps float64) float64 {
			return p.Perturber.Perturb((*current)[u], eps, p.Src)
		},
	}
	return collect.NewEnv(sim), nil
}

// RunMean drives a mean mechanism over T timestamps of a numeric stream
// through the in-process backend, returning released and true mean series.
// p is normally the same MeanParams the mechanism was constructed with.
func RunMean(m MeanMechanism, s Stream, T int, p MeanParams) (released, truth []float64, err error) {
	var current []float64
	env, err := SimEnv(p, &current)
	if err != nil {
		return nil, nil, err
	}
	buf := make([]float64, s.N())
	for t := 1; t <= T; t++ {
		vals, ok := s.Next(buf)
		if !ok {
			break
		}
		current = vals
		env.Advance(t)
		r, err := m.Step(env)
		if err != nil {
			return nil, nil, fmt.Errorf("numeric: %s at t=%d: %w", m.Name(), t, err)
		}
		released = append(released, r)
		truth = append(truth, Mean(vals))
	}
	return released, truth, nil
}
