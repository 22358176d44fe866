// Package collecttest is the shared conformance suite for collect.Collector
// backends: every backend — in-process Sim, HTTP serve backend, cluster
// coordinator, and any future one — must produce bit-identical estimates
// (histograms, and fo.Mean's exact means) from identical seeds, because
// per-round aggregation is order-independent integer counting over
// deterministic per-user perturbations.
//
// A backend test builds its Collector from a Spec's canonical reporter
// (per-user sources seeded Spec.BaseSeed+u, values from Value, or
// NumericValue under fo.Mean) and hands it to Run, which drives a scripted
// sequence of rounds and compares every estimate against a freshly built
// in-process reference. It also folds each round through the lock-striped
// fo.StripedAggregator and requires equality with the plain aggregator,
// and checks that invalid rounds surface errors instead of hanging.
package collecttest

import (
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

// Reporter returns one backend instance's report closure: user u perturbs
// the canonical value — NumericValue under the fo.Mean oracle, Value
// otherwise — with an independent source seeded BaseSeed+u. Every backend
// built from the same Spec therefore produces the same per-user report
// sequence regardless of transport or scheduling. Each backend instance
// (and the reference) needs its own closure, since the sources advance as
// rounds run.
func (s Spec) Reporter() func(u, t int, eps float64) fo.Report {
	srcs := make([]*ldprand.Source, s.N)
	for u := range srcs {
		srcs[u] = ldprand.New(s.BaseSeed + uint64(u))
	}
	if m, ok := s.Oracle.(*fo.Mean); ok {
		return func(u, t int, eps float64) fo.Report {
			return m.PerturbValue(NumericValue(u, t), eps, srcs[u])
		}
	}
	d := s.Oracle.Domain()
	return func(u, t int, eps float64) fo.Report {
		return s.Oracle.Perturb(Value(u, t, d), eps, srcs[u])
	}
}

// round is one scripted collection request.
type round struct {
	name  string
	t     int
	users []int
	eps   float64
}

// script returns the canonical round sequence for a population of n users:
// full rounds, subsets, out-of-order subsets, and repeated draws from the
// same users (advancing their sources), at several budgets.
func script(n int) []round {
	subset := []int{0, 2, 5, n / 2, n - 1}
	reversed := make([]int, 0, n/3)
	for u := n - 1; u >= 0; u -= 3 {
		reversed = append(reversed, u)
	}
	return []round{
		{name: "full", t: 1, users: nil, eps: 1.0},
		{name: "subset", t: 2, users: subset, eps: 0.5},
		{name: "reversed", t: 3, users: reversed, eps: 2.0},
		{name: "subset-again", t: 4, users: subset, eps: 1.0},
	}
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

	reference := &collect.Sim{Users: s.N, Report: s.Reporter()}

	for _, r := range script(s.N) {
		req := collect.Request{T: r.t, Users: r.users, Eps: r.eps}
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
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: estimate diverged at k=%d: backend %v, reference %v", r.name, k, got[k], want[k])
			}
			if math.Float64bits(stripedEst[k]) != math.Float64bits(want[k]) {
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
// against the in-process reference.
func RunStriped(t *testing.T, s Spec, stripes int, build func(t *testing.T) (collect.Collector, func())) {
	t.Helper()
	backend, cleanup := build(t)
	if cleanup != nil {
		defer cleanup()
	}
	reference := &collect.Sim{Users: s.N, Report: s.Reporter()}

	for _, r := range script(s.N) {
		req := collect.Request{T: r.t, Users: r.users, Eps: r.eps}
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
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: striped estimate diverged at k=%d: backend %v, reference %v", r.name, k, got[k], want[k])
			}
		}
	}
}

// teeSink duplicates reports into two sinks.
type teeSink struct {
	a, b collect.Sink
}

func (t teeSink) Absorb(r fo.Report) error {
	if err := t.a.Absorb(r); err != nil {
		return err
	}
	return t.b.Absorb(r)
}

func (t teeSink) Count() int { return t.a.Count() }

// SliceSink keeps a round's reports as they arrived: the plain sink of
// tests that only count or inspect them.
type SliceSink struct {
	Reports []fo.Report
}

// Absorb implements collect.Sink.
func (s *SliceSink) Absorb(r fo.Report) error {
	s.Reports = append(s.Reports, r)
	return nil
}

// Count implements collect.Sink.
func (s *SliceSink) Count() int { return len(s.Reports) }
