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
// collect.Collector backend (the in-process simulation, the in-memory
// channel backend, or the HTTP backend in package serve).
package mechanism

import (
	"errors"
	"fmt"
	"math"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// Env is the world a mechanism interacts with at one timestamp: the user
// population reachable through an LDP frequency oracle.
type Env interface {
	// T returns the current (1-based) timestamp.
	T() int
	// N returns the total user population size.
	N() int
	// Collect asks the given users to report their current value
	// perturbed with budget eps via the configured frequency oracle.
	// A nil users slice means "all users". The reports come back in
	// unspecified order.
	Collect(users []int, eps float64) ([]fo.Report, error)
}

// StreamEnv is an optional Env extension for environments that can fold
// each report into a streaming fo.Aggregator as it arrives, keeping
// server-side memory at O(d) counters instead of the O(n·d) report slice
// Collect materializes. collect.Env implements it for every backend;
// mechanisms use it automatically through estimate.
type StreamEnv interface {
	Env
	// CollectStream behaves like Collect but adds every report to agg
	// instead of returning a slice. Aggregation is order-independent
	// (integer counts), so implementations may fold concurrently as long
	// as Add calls are serialized.
	CollectStream(users []int, eps float64, agg fo.Aggregator) error
}

// AggregatorEnv is an optional Env extension: environments whose backends
// ingest concurrently (HTTP handlers, per-user device goroutines) provide
// each round's aggregator themselves — typically a stripe-folding
// fo.StripedAggregator — so the server fold scales with cores instead of
// serializing through one Add loop. Striped and plain folds are
// bit-identical, so estimates never depend on which aggregator the
// environment hands out. collect.Env implements it for every backend.
type AggregatorEnv interface {
	Env
	// NewRoundAggregator returns the aggregator one collection round
	// should fold into for the given oracle and budget.
	NewRoundAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error)
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
	case p.Eps <= 0:
		return fmt.Errorf("mechanism: eps must be positive, got %v", p.Eps)
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

// estimate collects from users with budget eps via env and aggregates with
// the oracle. users == nil means all users. Environments implementing
// StreamEnv are folded report-by-report into a streaming aggregator; the
// two paths share count math exactly, so estimates are identical either
// way.
func estimate(env Env, o fo.Oracle, users []int, eps float64) ([]float64, error) {
	if se, ok := env.(StreamEnv); ok {
		var (
			agg fo.Aggregator
			err error
		)
		if ae, ok := env.(AggregatorEnv); ok {
			agg, err = ae.NewRoundAggregator(o, eps)
		} else {
			agg, err = o.NewAggregator(eps)
		}
		if err != nil {
			return nil, err
		}
		if err := se.CollectStream(users, eps, agg); err != nil {
			return nil, err
		}
		return agg.Estimate()
	}
	reports, err := env.Collect(users, eps)
	if err != nil {
		return nil, err
	}
	return o.Estimate(reports, eps)
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
