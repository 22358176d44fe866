package experiment

import (
	"fmt"

	"ldpids/internal/cdp"
	"ldpids/internal/comm"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
	"ldpids/internal/metrics"
	"ldpids/internal/monitor"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

// RunSpec fully describes one mechanism-on-dataset execution.
type RunSpec struct {
	// Stream selects and parameterizes the dataset.
	Stream StreamSpec
	// Method is the mechanism's paper name (LBU, ..., LPA).
	Method string
	// Eps is the per-window privacy budget.
	Eps float64
	// W is the window size.
	W int
	// Oracle names the frequency oracle (any name fo.New accepts: "GRR",
	// "OUE", "SUE", "OLH", cohort-hashed "OLH-C", or the aliases
	// "OUE-packed", "SUE-packed" of OUE and SUE, which report packed bits);
	// empty selects GRR, matching the paper's analysis.
	Oracle string
	// Seed makes the run replayable (mechanism + perturbation noise).
	Seed uint64
	// StreamSeed, when non-zero, seeds the dataset generation separately
	// from the mechanism randomness, so a parameter sweep can compare
	// methods on the SAME stream realization.
	StreamSeed uint64
	// Audit enables the w-event privacy accountant.
	Audit bool
	// UMin passes LPD's minimum publication-user threshold (0 = 1).
	UMin int
	// DisFraction overrides the M1 resource split of the adaptive
	// methods (0 = the paper's 1/2).
	DisFraction float64
}

// Outcome summarizes one run with every metric the paper reports.
type Outcome struct {
	// Spec echoes the run's specification.
	Spec RunSpec
	// N and T are the realized population and stream length.
	N, T int
	// MRE, MAE and MSE compare released and true streams.
	MRE, MAE, MSE float64
	// CFPU is the communication frequency per user.
	CFPU float64
	// Comm carries the full communication accounting (report and byte
	// totals), from the last repetition in averaged outcomes.
	Comm comm.Stats
	// AUC is the above-threshold event-monitoring score (Fig. 7 task).
	AUC float64
	// Released and True hold the full streams for further analysis.
	Released, True [][]float64
	// PrivacyViolations counts the accountant's violating charges: each
	// report, or whole-population round, that left a user's window over
	// budget (0 when the audit is off or the invariant held). Unlike the
	// error metrics it is NEVER averaged: in an ExecuteAveraged outcome it
	// is the TOTAL across all repetitions, so a single violation anywhere
	// in the batch cannot be rounded away.
	PrivacyViolations int
	// MaxWindowLoss is the accountant's maximum measured privacy spend
	// over any w-window by any user (0 when the audit is off). Like
	// PrivacyViolations it is never averaged: ExecuteAveraged reports the
	// MAXIMUM across repetitions, so it stays a worst-case bound.
	MaxWindowLoss float64
}

// Execute runs the spec and computes all metrics. Besides the paper's
// seven mechanisms it accepts the granularity baselines ("EventLevel",
// "UserLevel" — the latter splits ε over the run's full horizon T) and the
// centralized baselines ("CDP-Uniform", "CDP-BD", "CDP-BA"), which run
// over the true histograms in the trusted-aggregator model; every variant
// is a deterministic function of the spec, so all of them journal and
// resume uniformly.
func Execute(spec RunSpec) (*Outcome, error) {
	root := ldprand.New(spec.Seed)
	streamRoot := root
	if spec.StreamSeed != 0 {
		streamRoot = ldprand.New(spec.StreamSeed)
	}
	s, T, d, err := spec.Stream.Build(streamRoot.Split())
	if err != nil {
		return nil, err
	}
	if isCDPMethod(spec.Method) {
		return executeCDP(spec, root, s, T, d)
	}
	oracleName := spec.Oracle
	if oracleName == "" {
		oracleName = "GRR"
	}
	oracle, err := fo.New(oracleName, d)
	if err != nil {
		return nil, err
	}
	n := s.N()
	params := mechanism.Params{
		Eps:         spec.Eps,
		W:           spec.W,
		N:           n,
		Oracle:      oracle,
		Src:         root.Split(),
		UMin:        spec.UMin,
		DisFraction: spec.DisFraction,
	}
	var m mechanism.Mechanism
	if spec.Method == "UserLevel" {
		// The finite user-level baseline needs the horizon, which only
		// the run knows; it is not constructible from Params alone.
		m, err = mechanism.NewUserLevelFinite(params, T)
	} else {
		m, err = mechanism.New(spec.Method, params)
	}
	if err != nil {
		return nil, err
	}
	var acct *window.Accountant
	if spec.Audit {
		acct = window.NewAccountant(spec.Eps, spec.W)
	}
	runner := &mechanism.Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	res, err := runner.Run(m, T)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s on %s: %w", spec.Method, spec.Stream.Dataset, err)
	}

	out := &Outcome{
		Spec:     spec,
		N:        n,
		T:        len(res.Released),
		MRE:      metrics.MRE(res.Released, res.True, 0),
		MAE:      metrics.MAE(res.Released, res.True),
		MSE:      metrics.MSE(res.Released, res.True),
		CFPU:     res.Comm.CFPU,
		Comm:     res.Comm,
		Released: res.Released,
		True:     res.True,
	}
	out.PrivacyViolations = len(res.Violations)
	if acct != nil {
		out.MaxWindowLoss = acct.MaxSpend()
	}

	// Event-monitoring AUC: monitor the "1" frequency on binary
	// datasets; on the skewed categorical traces, monitor the five head
	// categories (tail categories' thresholds sit inside the LDP noise
	// floor and carry no detectable events; §7.4).
	var task monitor.Task
	if IsBinary(spec.Stream.Dataset) {
		task = monitor.ScalarTask(res.Released, res.True, 1)
	} else {
		task = monitor.TopKTask(res.Released, res.True, 5)
	}
	if task.Positives() > 0 {
		out.AUC = task.AUC()
	}
	return out, nil
}

// isCDPMethod reports whether the method is a centralized-DP baseline.
func isCDPMethod(name string) bool {
	return name == "CDP-Uniform" || name == "CDP-BD" || name == "CDP-BA"
}

// executeCDP runs a centralized baseline over the true histograms: the
// trusted aggregator sees raw data, adds calibrated Laplace noise, and
// releases. No reports travel, so CFPU is zero, and the w-event LDP
// accountant does not apply (the guarantee is central DP).
func executeCDP(spec RunSpec, root *ldprand.Source, s stream.Stream, T, d int) (*Outcome, error) {
	n := s.N()
	if spec.Eps <= 0 || spec.W < 1 || n < 1 {
		return nil, fmt.Errorf("experiment: %s needs eps > 0, w >= 1, n >= 1", spec.Method)
	}
	truth := stream.Histograms(stream.Materialize(s, T), d)
	p := cdp.Params{Eps: spec.Eps, W: spec.W, N: n, Src: root.Split()}
	var m cdp.Mechanism
	switch spec.Method {
	case "CDP-Uniform":
		m = cdp.NewUniform(p)
	case "CDP-BD":
		m = cdp.NewBD(p)
	case "CDP-BA":
		m = cdp.NewBA(p)
	}
	released := cdp.Run(m, truth)
	out := &Outcome{
		Spec:     spec,
		N:        n,
		T:        len(released),
		MRE:      metrics.MRE(released, truth, 0),
		MAE:      metrics.MAE(released, truth),
		MSE:      metrics.MSE(released, truth),
		Released: released,
		True:     truth,
	}
	var task monitor.Task
	if IsBinary(spec.Stream.Dataset) {
		task = monitor.ScalarTask(released, truth, 1)
	} else {
		task = monitor.TopKTask(released, truth, 5)
	}
	if task.Positives() > 0 {
		out.AUC = task.AUC()
	}
	return out, nil
}

// ExecuteAveraged runs the spec reps times with derived seeds and averages
// the scalar metrics (streams come from the last run; PrivacyViolations is
// the total and MaxWindowLoss the maximum across repetitions, see
// Outcome). Repetitions run in parallel
// on up to GOMAXPROCS workers: each derives its seed as
// spec.Seed + i*1000003 independently of scheduling, and the metric sums
// are reduced in repetition order, so the outcome is bit-identical to a
// serial run.
func ExecuteAveraged(spec RunSpec, reps int) (*Outcome, error) {
	return ExecuteAveragedWorkers(spec, reps, 0)
}

// ExecuteAveragedWorkers is ExecuteAveraged with an explicit worker bound:
// 0 means one worker per CPU, 1 forces the serial path.
func ExecuteAveragedWorkers(spec RunSpec, reps, workers int) (*Outcome, error) {
	if reps < 1 {
		reps = 1
	}
	// Only scalar metrics are kept per repetition; the full stream
	// matrices are retained for the first outcome (the reduction carrier,
	// as in the serial loop) and the last (whose streams the averaged
	// outcome reports), bounding memory at two outcomes regardless of
	// reps.
	type repMetrics struct {
		mre, mae, mse, cfpu, auc float64
		violations               int
		maxLoss                  float64
	}
	repResults := make([]repMetrics, reps)
	var first, last *Outcome
	if err := parallelFor(reps, workers, func(i int) error {
		s := spec
		s.Seed = spec.Seed + uint64(i)*1000003
		o, err := Execute(s)
		if err != nil {
			return err
		}
		repResults[i] = repMetrics{o.MRE, o.MAE, o.MSE, o.CFPU, o.AUC, o.PrivacyViolations, o.MaxWindowLoss}
		if i == 0 {
			first = o
		}
		if i == reps-1 {
			last = o
		}
		return nil
	}); err != nil {
		return nil, err
	}
	acc := first
	for _, m := range repResults[1:] {
		acc.MRE += m.mre
		acc.MAE += m.mae
		acc.MSE += m.mse
		acc.CFPU += m.cfpu
		acc.AUC += m.auc
		acc.PrivacyViolations += m.violations
		if m.maxLoss > acc.MaxWindowLoss {
			acc.MaxWindowLoss = m.maxLoss
		}
	}
	acc.Comm = last.Comm
	acc.Released, acc.True = last.Released, last.True
	inv := 1 / float64(reps)
	acc.MRE *= inv
	acc.MAE *= inv
	acc.MSE *= inv
	acc.CFPU *= inv
	acc.AUC *= inv
	return acc, nil
}
