// Package collecttest is the shared conformance suite for collect.Collector
// backends: every backend — in-process Sim, HTTP serve backend, cluster
// coordinator, and any future one — must produce
// bit-identical frequency estimates from identical seeds, because
// per-round aggregation is order-independent integer counting over
// deterministic per-user perturbations.
//
// A backend test builds its Collector from a Spec's canonical reporters
// (per-user sources seeded Spec.BaseSeed+u, values from Value/NumericValue)
// and hands it to Run, which drives a scripted sequence of rounds and
// compares every estimate against a freshly built in-process reference. It
// also folds each round through the lock-striped fo.StripedAggregator and
// requires equality with the plain aggregator, and checks that invalid
// rounds surface errors instead of hanging.
package collecttest

import (
	"fmt"
	"math"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// Spec describes the canonical deterministic population a backend under
// test must expose through its reporters.
type Spec struct {
	// N is the population size.
	N int
	// Oracle is the frequency oracle shared by all users.
	Oracle fo.Oracle
	// BaseSeed derives user u's perturbation source as BaseSeed+u.
	BaseSeed uint64
	// Numeric enables the numeric mean rounds of the script (set it when
	// the backend wires a NumericReport path).
	Numeric bool
}

// Value is user u's canonical true categorical value at timestamp t.
func Value(u, t, d int) int {
	v := (u*31 + t*17) % d
	if v < 0 {
		v += d
	}
	return v
}

// NumericValue is user u's canonical true numeric value at timestamp t,
// in [-1, 1].
func NumericValue(u, t int) float64 {
	return math.Sin(float64(u)*0.7 + float64(t)*1.3)
}

// Reporters returns one backend instance's report closures: user u
// perturbs the canonical values with an independent source seeded
// BaseSeed+u. Every backend built from the same Spec therefore produces
// the same per-user contribution sequence regardless of transport or
// scheduling. Each backend instance (and the reference) needs its own
// closures, since the sources advance as rounds run.
func (s Spec) Reporters() (report func(u, t int, eps float64) fo.Report, numeric func(u, t int, eps float64) float64) {
	srcs := make([]*ldprand.Source, s.N)
	for u := range srcs {
		srcs[u] = ldprand.New(s.BaseSeed + uint64(u))
	}
	d := s.Oracle.Domain()
	report = func(u, t int, eps float64) fo.Report {
		return s.Oracle.Perturb(Value(u, t, d), eps, srcs[u])
	}
	if s.Numeric {
		// The numeric path draws from the same per-user source; rounds
		// are scripted so the draw order per user is identical everywhere.
		numeric = func(u, t int, eps float64) float64 {
			// Duchi's mechanism: one Bernoulli draw per report.
			return numericPerturb(NumericValue(u, t), eps, srcs[u])
		}
	}
	return report, numeric
}

// numericPerturb is the canonical numeric randomizer (Duchi et al.): one
// deterministic Bernoulli draw per report.
func numericPerturb(v, eps float64, src *ldprand.Source) float64 {
	e := math.Exp(eps)
	c := (e + 1) / (e - 1)
	if src.Bernoulli(0.5 * (1 + v/c)) {
		return c
	}
	return -c
}

// round is one scripted collection request.
type round struct {
	name    string
	t       int
	users   []int
	eps     float64
	numeric bool
}

// script returns the canonical round sequence for a population of n users:
// full rounds, subsets, out-of-order subsets, and repeated draws from the
// same users (advancing their sources), at several budgets.
func script(n int, numeric bool) []round {
	subset := []int{0, 2, 5, n / 2, n - 1}
	reversed := make([]int, 0, n/3)
	for u := n - 1; u >= 0; u -= 3 {
		reversed = append(reversed, u)
	}
	rounds := []round{
		{name: "full", t: 1, users: nil, eps: 1.0},
		{name: "subset", t: 2, users: subset, eps: 0.5},
		{name: "reversed", t: 3, users: reversed, eps: 2.0},
		{name: "subset-again", t: 4, users: subset, eps: 1.0},
	}
	if numeric {
		rounds = append(rounds,
			round{name: "numeric-full", t: 5, users: nil, eps: 1.0, numeric: true},
			round{name: "numeric-subset", t: 6, users: subset, eps: 0.8, numeric: true},
		)
	}
	return rounds
}

// Run drives the backend built by build through the canonical script and
// requires bit-identical frequency estimates (and report counts) against
// the in-process reference, plus fo.StripedAggregator equality and clean
// errors on invalid rounds. build receives nothing: the backend must
// already be wired to the Spec's Reporters; cleanup (if non-nil) runs at
// the end.
func Run(t *testing.T, s Spec, build func(t *testing.T) (collect.Collector, func())) {
	t.Helper()
	backend, cleanup := build(t)
	if cleanup != nil {
		defer cleanup()
	}
	if got := backend.N(); got != s.N {
		t.Fatalf("backend population %d, want %d", got, s.N)
	}

	refReport, refNumeric := s.Reporters()
	reference := &collect.Sim{Users: s.N, Report: refReport, NumericReport: refNumeric}

	for _, r := range s.script() {
		req := collect.Request{T: r.t, Users: r.users, Eps: r.eps, Numeric: r.numeric}
		if r.numeric {
			want := &collect.MeanSink{}
			if err := reference.Collect(req, want); err != nil {
				t.Fatalf("%s: reference: %v", r.name, err)
			}
			got := &collect.MeanSink{}
			if err := backend.Collect(req, got); err != nil {
				t.Fatalf("%s: backend: %v", r.name, err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("%s: backend folded %d contributions, want %d", r.name, got.Count(), want.Count())
			}
			// Float summation order differs across transports; the means
			// must agree to summation roundoff.
			if math.Abs(got.Mean()-want.Mean()) > 1e-9 {
				t.Fatalf("%s: backend mean %v, want %v", r.name, got.Mean(), want.Mean())
			}
			continue
		}

		wantAgg, err := s.Oracle.NewAggregator(r.eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Collect(req, collect.AggregatorSink{Agg: wantAgg}); err != nil {
			t.Fatalf("%s: reference: %v", r.name, err)
		}
		want, err := wantAgg.Estimate()
		if err != nil {
			t.Fatal(err)
		}

		// The backend's round folds into a plain aggregator and, in
		// parallel, the lock-striped one: all three estimates must be
		// bit-identical.
		gotAgg, err := s.Oracle.NewAggregator(r.eps)
		if err != nil {
			t.Fatal(err)
		}
		striped, err := fo.NewStripedAggregator(s.Oracle, r.eps, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(req, teeSink{collect.AggregatorSink{Agg: gotAgg}, collect.AggregatorSink{Agg: striped}}); err != nil {
			t.Fatalf("%s: backend: %v", r.name, err)
		}
		if gotAgg.Reports() != wantAgg.Reports() {
			t.Fatalf("%s: backend folded %d reports, want %d", r.name, gotAgg.Reports(), wantAgg.Reports())
		}
		got, err := gotAgg.Estimate()
		if err != nil {
			t.Fatalf("%s: backend estimate: %v", r.name, err)
		}
		stripedEst, err := striped.Estimate()
		if err != nil {
			t.Fatalf("%s: striped estimate: %v", r.name, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: estimate diverged at k=%d: backend %v, reference %v", r.name, k, got[k], want[k])
			}
			if stripedEst[k] != want[k] {
				t.Fatalf("%s: striped estimate diverged at k=%d: %v != %v", r.name, k, stripedEst[k], want[k])
			}
		}
	}

	// Invalid rounds surface clean errors on every backend.
	if err := backend.Collect(collect.Request{T: 99, Eps: 0}, &SliceSink{}); err == nil {
		t.Fatal("zero eps accepted")
	}
	if err := backend.Collect(collect.Request{T: 99, Users: []int{s.N}, Eps: 1}, &SliceSink{}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
}

// RunStriped drives a backend built by build through the canonical script
// folding every frequency round into a stripe-folding fo.StripedAggregator
// (via an AggregatorSink, which exposes the concurrent shard-local
// ingestion path to backends that support it — serve's HTTP handlers) and
// requires bit-identical estimates
// against the in-process reference. Numeric rounds run through MeanSinks on
// both sides so per-user sources stay in lockstep with the script.
func RunStriped(t *testing.T, s Spec, stripes int, build func(t *testing.T) (collect.Collector, func())) {
	t.Helper()
	backend, cleanup := build(t)
	if cleanup != nil {
		defer cleanup()
	}
	refReport, refNumeric := s.Reporters()
	reference := &collect.Sim{Users: s.N, Report: refReport, NumericReport: refNumeric}

	for _, r := range s.script() {
		req := collect.Request{T: r.t, Users: r.users, Eps: r.eps, Numeric: r.numeric}
		if r.numeric {
			want, got := &collect.MeanSink{}, &collect.MeanSink{}
			if err := reference.Collect(req, want); err != nil {
				t.Fatalf("%s: reference: %v", r.name, err)
			}
			if err := backend.Collect(req, got); err != nil {
				t.Fatalf("%s: backend: %v", r.name, err)
			}
			if got.Count() != want.Count() {
				t.Fatalf("%s: backend folded %d contributions, want %d", r.name, got.Count(), want.Count())
			}
			if math.Abs(got.Mean()-want.Mean()) > 1e-9 {
				t.Fatalf("%s: backend mean %v, want %v", r.name, got.Mean(), want.Mean())
			}
			continue
		}

		wantAgg, err := s.Oracle.NewAggregator(r.eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Collect(req, collect.AggregatorSink{Agg: wantAgg}); err != nil {
			t.Fatalf("%s: reference: %v", r.name, err)
		}
		want, err := wantAgg.Estimate()
		if err != nil {
			t.Fatal(err)
		}

		striped, err := fo.NewStripedAggregator(s.Oracle, r.eps, stripes)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(req, collect.AggregatorSink{Agg: striped}); err != nil {
			t.Fatalf("%s: backend: %v", r.name, err)
		}
		if striped.Reports() != wantAgg.Reports() {
			t.Fatalf("%s: backend folded %d reports, want %d", r.name, striped.Reports(), wantAgg.Reports())
		}
		got, err := striped.Estimate()
		if err != nil {
			t.Fatalf("%s: striped estimate: %v", r.name, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: striped estimate diverged at k=%d: backend %v, reference %v", r.name, k, got[k], want[k])
			}
		}
	}
}

// script binds the package-level script to the spec.
func (s Spec) script() []round { return script(s.N, s.Numeric) }

// teeSink duplicates contributions into two sinks.
type teeSink struct {
	a, b collect.Sink
}

func (t teeSink) Absorb(c collect.Contribution) error {
	if err := t.a.Absorb(c); err != nil {
		return err
	}
	return t.b.Absorb(c)
}

func (t teeSink) Count() int { return t.a.Count() }

// SliceSink keeps a frequency round's reports as they arrived: the plain
// sink of tests that only count or inspect them.
type SliceSink struct {
	Reports []fo.Report
}

// Absorb implements collect.Sink.
func (s *SliceSink) Absorb(c collect.Contribution) error {
	if c.Numeric {
		return fmt.Errorf("collecttest: SliceSink cannot absorb a numeric contribution")
	}
	s.Reports = append(s.Reports, c.Report)
	return nil
}

// Count implements collect.Sink.
func (s *SliceSink) Count() int { return len(s.Reports) }
