// Package mechanism implements the seven w-event LDP stream-release methods
// of the LDP-IDS paper:
//
//   - budget division: LBU (uniform), LSP (sampling), LBD (Algorithm 1,
//     budget distribution), LBA (Algorithm 2, budget absorption);
//   - population division: LPU (uniform), LPD (Algorithm 3, population
//     distribution), LPA (Algorithm 4, population absorption).
//
// The adaptive methods are one Step, Adaptive's, over a resource and a
// schedule:
//
//	            distribution  absorption
//	budget      LBD (Alg. 1)  LBA (Alg. 2)
//	population  LPD (Alg. 3)  LPA (Alg. 4), ChurnLPA (§6.4)
//
// The resource is what a window divides: the budget, where every user
// reports at a share of ε (§5.3), or the population, where a share of the
// users reports at the whole ε, each at most once per window (§6.2): a
// Pool of users 0..N-1 for LPD and LPA, a ChurnPool whose census changes
// for ChurnLPA. The schedule is how publications claim it,
// window.Distribution or window.Absorption (Kellaris et al., PVLDB 2014).
// Every timestamp runs the dissimilarity sub-mechanism M_{t,1} (Eq. 4) on
// a fixed share, asks the schedule for its offer, and publishes the offer
// when its potential publication error (Eq. 6) is below the
// dissimilarity; otherwise it re-releases r_{t-1}. No other code makes
// that decision.
//
// A constructor refuses a budget whose smallest or largest per-round
// share the oracle would refuse, and a round whose estimate is not finite
// fails, so a bad budget never reaches a release.
//
// A Mechanism is driven one timestamp at a time through an Env, which
// abstracts "ask this set of users to perturb their current value with
// budget ε via the frequency oracle and return the reports". The mechanism
// never sees raw user data — only FO reports — mirroring the paper's
// untrusted-aggregator trust model. Env is a thin view over the pluggable
// collection layer in package collect: collect.Env satisfies it for any
// collect.Collector backend (the in-process simulation, the HTTP backend in
// package serve, or the cluster coordinator).
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// Env is the world a mechanism interacts with at one timestamp: the user
// population reachable through an LDP frequency oracle. A collection round
// folds each report into a streaming fo.Aggregator as it arrives, so
// server-side memory stays at O(d) counters. collect.Env implements it for
// every backend.
type Env interface {
	// T returns the current (1-based) timestamp.
	T() int
	// N returns the total user population size.
	N() int
	// NewRoundAggregator returns the aggregator one collection round
	// should fold into for the given oracle and budget. Environments whose
	// backends ingest concurrently hand out a stripe-folding
	// fo.StripedAggregator; striped and plain folds are bit-identical, so
	// estimates never depend on the choice. The aggregator is valid until
	// the next call, which may re-arm it (fo.Reset) for the next round:
	// finish with it — Estimate — before asking for another.
	NewRoundAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error)
	// CollectStream asks the given users to report their current value
	// perturbed with budget eps via the configured frequency oracle, and
	// adds every report to agg. A nil users slice means "all users".
	// Aggregation is order-independent (integer counts), so
	// implementations may fold concurrently as long as Add calls are
	// serialized.
	CollectStream(users []int, eps float64, agg fo.Aggregator) error
}

// Mechanism releases one estimated frequency histogram per timestamp while
// guaranteeing w-event ε-LDP to every user. Step must be called once per
// timestamp, in order.
type Mechanism interface {
	// Name returns the method's short paper name (LBU, LPD, ...).
	Name() string
	// Step processes the next timestamp through env and returns the
	// released histogram r_t (length d, frequencies). The release is
	// immutable once returned: callers may keep it, and nobody — the
	// mechanism included — writes to it. A publication is fresh storage;
	// an approximation returns the previous release itself, as the paper
	// defines r_t = r_{t-1}.
	Step(env Env) ([]float64, error)
}

// Params configures a mechanism.
type Params struct {
	// Eps is the total privacy budget ε per sliding window.
	Eps float64
	// W is the sliding-window size w.
	W int
	// N is the population size (must match the Env's population).
	N int
	// Oracle is the frequency-oracle protocol shared by all users.
	Oracle fo.Oracle
	// Src provides the mechanism's own randomness (user sampling). It is
	// distinct from the users' perturbation randomness, which lives in
	// the Env.
	Src *ldprand.Source
	// UMin is the minimum publication-user count for LPD (paper §6.2.2,
	// threshold u_min). Zero means the default of 1.
	UMin int
	// DisFraction is the fraction of the per-window resource (budget or
	// population) devoted to the dissimilarity sub-mechanism M1; the
	// remainder funds publications. Nonzero values must lie in (0, 1);
	// zero selects the paper's even split of 1/2 (§5.3.3, §6.2.1).
	DisFraction float64
}

// disFrac returns the M1 resource fraction, defaulting to the paper's 1/2.
func (p *Params) disFrac() float64 {
	if p.DisFraction == 0 {
		return 0.5
	}
	return p.DisFraction
}

// validate checks parameter sanity shared by all constructors, and that
// the oracle accepts each of the given per-round budgets: a constructor
// passes the smallest and the largest share of ε it will hand a round, so
// a budget the oracle refuses fails construction instead of a later round.
func (p *Params) validate(shares ...float64) error {
	switch {
	case !(p.Eps > 0) || math.IsInf(p.Eps, 1):
		return fmt.Errorf("mechanism: eps must be positive and finite, got %v", p.Eps)
	case p.W < 1:
		return fmt.Errorf("mechanism: window size must be >= 1, got %d", p.W)
	case p.N < 1:
		return fmt.Errorf("mechanism: population must be >= 1, got %d", p.N)
	case p.Oracle == nil:
		return errors.New("mechanism: oracle is required")
	case p.Src == nil:
		return errors.New("mechanism: randomness source is required")
	case p.DisFraction < 0 || p.DisFraction >= 1:
		return fmt.Errorf("mechanism: DisFraction must lie in (0, 1), or be 0 to select the default 1/2, got %v", p.DisFraction)
	}
	for _, eps := range shares {
		if _, err := p.Oracle.NewAggregator(eps); err != nil {
			return fmt.Errorf("mechanism: %s refuses a round at eps=%v: %w", p.Oracle.Name(), eps, err)
		}
	}
	return nil
}

// d returns the domain size.
func (p *Params) d() int { return p.Oracle.Domain() }

// zeros returns the initial release r_0 = <0, ..., 0>.
func zeros(d int) []float64 { return make([]float64, d) }

// dissimilarity computes the paper's unbiased dissimilarity estimator
// (Eq. 4): the mean squared deviation (1/d) Σ_k (c1[k]-rPrev[k])² between
// the fresh estimate c1 and the last release rPrev, debiased by the
// estimator's own variance.
func dissimilarity(c1, rPrev []float64, estVariance float64) float64 {
	sum := 0.0
	for k := range c1 {
		diff := c1[k] - rPrev[k]
		sum += diff * diff
	}
	return sum/float64(len(c1)) - estVariance
}

// dissimilarityRound is sub-mechanism M_{t,1} of every adaptive method:
// users (nil: all of them) report at eps, and their estimate c1, finished
// into scratch, is compared with the last release by Eq. 4, debiased by
// the oracle's estimation variance for that many users at eps.
func dissimilarityRound(env Env, o fo.Oracle, users []int, eps float64, last, scratch []float64) (float64, error) {
	c1, err := estimate(env, o, users, eps, scratch)
	if err != nil {
		return 0, err
	}
	n := len(users)
	if users == nil {
		n = env.N()
	}
	return dissimilarity(c1, last, o.VarianceApprox(eps, n)), nil
}

// estimate collects from users with budget eps via env, folding the reports
// into the round aggregator env hands out, and returns its estimate,
// finished into dst (fo.EstimateInto). users == nil means all users. A
// non-finite estimate fails the round rather than reach a release.
// Releases pass a nil dst and get fresh storage; the dissimilarity
// estimate c1, compared and dropped within one Step, passes the
// mechanism's scratch.
func estimate(env Env, o fo.Oracle, users []int, eps float64, dst []float64) ([]float64, error) {
	agg, err := env.NewRoundAggregator(o, eps)
	if err != nil {
		return nil, err
	}
	if err := env.CollectStream(users, eps, agg); err != nil {
		return nil, err
	}
	est, err := fo.EstimateInto(agg, dst)
	if err != nil {
		return nil, err
	}
	for k, x := range est {
		if x-x != 0 { // NaN or ±Inf: a finite x gives 0
			return nil, fmt.Errorf("mechanism: %s estimated %v for element %d at eps=%v", o.Name(), x, k, eps)
		}
	}
	return est, nil
}

// Hooked decorates a Mechanism with a round-close release hook: OnRelease
// is invoked after every successful Step with the timestamp and the
// released histogram, before Step returns. Long-running drivers hang live
// consumers off it — a snapshot store serving queries, a durable release
// log, the benchmark rig's release digest — without the mechanism knowing
// anything about them. Failed steps skip the hook.
type Hooked struct {
	Mechanism
	// OnRelease observes each released histogram as its round closes. The
	// slice is the mechanism's immutable release (see Mechanism.Step):
	// consumers may retain it and must not write to it.
	OnRelease func(t int, release []float64)
}

// Step implements Mechanism: it steps the wrapped mechanism and notifies
// the hook on success.
func (h Hooked) Step(env Env) ([]float64, error) {
	release, err := h.Mechanism.Step(env)
	if err == nil && h.OnRelease != nil {
		h.OnRelease(env.T(), release)
	}
	return release, err
}
