package mechanism

import (
	"fmt"

	"ldpids/internal/collect"
	"ldpids/internal/comm"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

// Runner drives a Mechanism over a Stream through the in-process collect
// backend, collecting released histograms, ground truth, communication
// statistics, and (optionally) a privacy audit. It is the simulation
// backbone used by tests, examples, and the benchmark harness.
type Runner struct {
	Stream     stream.Stream
	Oracle     fo.Oracle
	Src        *ldprand.Source
	Accountant *window.Accountant // nil disables auditing
}

// RunResult holds everything a run produced.
type RunResult struct {
	// Released holds r_t for each timestamp.
	Released [][]float64
	// True holds the ground-truth histogram c_t for each timestamp.
	True [][]float64
	// Comm summarizes communication cost.
	Comm comm.Stats
	// Violations holds the accountant's violating charges (nil when
	// auditing is disabled or the invariant held).
	Violations []window.Violation
}

// newSimEnv wires the in-process simulation environment Runner.Run uses: a
// collect.Sim backend whose users perturb the snapshot behind *current with
// the shared source, adapted through a collect.Env. Callers update *current
// and call env.Advance once per timestamp. The per-user perturbation order
// and randomness match the historical simulation exactly.
func newSimEnv(n int, oracle fo.Oracle, src *ldprand.Source, current *[]int, acct *window.Accountant) *collect.Env {
	sim := &collect.Sim{
		Users: n,
		Report: func(u, _ int, eps float64) fo.Report {
			return oracle.Perturb((*current)[u], eps, src)
		},
	}
	env := collect.NewEnv(sim)
	if acct != nil {
		env.Observer = acct.Observe
	}
	return env
}

// Run executes m over at most T timestamps of the runner's stream and
// returns the run artifacts. It stops early if the stream ends.
func (r *Runner) Run(m Mechanism, T int) (*RunResult, error) {
	d := r.Stream.Domain()
	n := r.Stream.N()
	var current []int
	env := newSimEnv(n, r.Oracle, r.Src, &current, r.Accountant)
	res := &RunResult{}
	buf := make([]int, n)
	for t := 1; t <= T; t++ {
		vals, ok := r.Stream.Next(buf)
		if !ok {
			break
		}
		current = vals
		env.Advance(t)
		release, err := m.Step(env)
		if err != nil {
			return nil, fmt.Errorf("mechanism %s at t=%d: %w", m.Name(), t, err)
		}
		if len(release) != d {
			return nil, fmt.Errorf("mechanism %s at t=%d: release length %d, want %d",
				m.Name(), t, len(release), d)
		}
		res.Released = append(res.Released, release)
		res.True = append(res.True, stream.Histogram(vals, d))
	}
	res.Comm = env.Stats()
	if r.Accountant != nil {
		res.Violations = r.Accountant.Violations()
	}
	return res, nil
}
