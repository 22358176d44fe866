package collect

import (
	"fmt"

	"ldpids/internal/fo"
)

// Sim is the in-process simulation backend: it calls the report closure
// synchronously for each requested user, in request order. It is the
// reference implementation of Collector — the conformance suite compares
// every other backend against it — and the backbone of mechanism.Runner
// and numeric.RunMean. The closure owns the users' true values and
// perturbation randomness; only perturbed reports cross the boundary.
type Sim struct {
	// Users is the population size.
	Users int
	// Report produces user u's perturbed report at timestamp t with budget
	// eps.
	Report func(u, t int, eps float64) fo.Report
}

// N implements Collector.
func (s *Sim) N() int { return s.Users }

// Collect implements Collector: users are visited synchronously in request
// order, so runs driven through Sim are fully deterministic even with a
// single shared randomness source.
func (s *Sim) Collect(req Request, sink Sink) error {
	if err := req.Validate(s.Users); err != nil {
		return err
	}
	if s.Report == nil {
		return fmt.Errorf("collect: sim backend has no reporter")
	}
	return req.forEachUser(s.Users, func(u int) error {
		return sink.Absorb(s.Report(u, req.T, req.Eps))
	})
}
