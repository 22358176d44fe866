// Package mechanism implements the seven w-event LDP stream-release methods
// of the LDP-IDS paper:
//
//   - budget division: LBU (uniform), LSP (sampling), LBD (Algorithm 1,
//     budget distribution), LBA (Algorithm 2, budget absorption);
//   - population division: LPU (uniform), LPD (Algorithm 3, population
//     distribution), LPA (Algorithm 4, population absorption).
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
	// released histogram r_t (length d, frequencies).
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

// validate checks parameter sanity shared by all constructors.
func (p *Params) validate() error {
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
	return nil
}

// d returns the domain size.
func (p *Params) d() int { return p.Oracle.Domain() }

// zeros returns the initial release r_0 = <0, ..., 0>.
func zeros(d int) []float64 { return make([]float64, d) }

// meanSqDiff returns (1/d) Σ_k (a[k]-b[k])^2.
func meanSqDiff(a, b []float64) float64 {
	sum := 0.0
	for k := range a {
		diff := a[k] - b[k]
		sum += diff * diff
	}
	return sum / float64(len(a))
}

// dissimilarity computes the paper's unbiased dissimilarity estimator
// (Eq. 4): the mean squared deviation between the fresh estimate c1 and the
// last release rPrev, debiased by the estimator's own variance.
func dissimilarity(c1, rPrev []float64, estVariance float64) float64 {
	return meanSqDiff(c1, rPrev) - estVariance
}

// estimate collects from users with budget eps via env, folding the reports
// into the round aggregator env hands out, and returns its estimate,
// finished into dst (fo.EstimateInto). users == nil means all users.
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
	return fo.EstimateInto(agg, dst)
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
	// slice is the mechanism's release; consumers must copy it if they
	// retain it beyond the call.
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

// copyVec returns a copy of v; releases must not alias internal state.
func copyVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// publicationError returns the oracle's frequency-independent estimation
// variance for n users at budget eps — the paper's potential publication
// error err (Eq. 6). n <= 0 yields +Inf, which forces approximation.
func publicationError(o fo.Oracle, eps float64, n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return o.VarianceApprox(eps, n)
}
