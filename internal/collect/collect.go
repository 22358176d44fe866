// Package collect is the transport-agnostic ingestion layer of LDP-IDS.
//
// A mechanism asks a Collector to gather perturbed contributions from a
// subset of the user population under a privacy budget; the Collector folds
// each contribution into a pluggable Sink as it arrives. Mechanisms never
// see raw user data — only perturbed contributions — mirroring the paper's
// untrusted-aggregator trust model, and they never see the transport: the
// same mechanism runs unchanged over the in-process Sim backend, the HTTP
// backend in package serve, or the cluster coordinator.
//
// Contributions are frequency-oracle reports (fo.Report), so the paper's
// histogram mechanisms and mean estimation (the fo.Mean oracle) share one
// ingestion pipeline. The sink is AggregatorSink: streaming O(d)
// aggregation, including the lock-striped fo.StripedAggregator for
// concurrent folds.
//
// Every backend must pass the conformance suite in collect/collecttest:
// identical seeds produce bit-identical released histograms regardless of
// backend, because per-round aggregation is order-independent integer
// counting.
package collect

import (
	"fmt"
	"math"

	"ldpids/internal/fo"
)

// Sink folds one round's contributions into aggregate state. Collectors
// serialize Absorb calls, so implementations need no internal locking;
// contributions may arrive in any order.
type Sink interface {
	// Absorb folds one report. It rejects reports whose kind does not
	// match the sink.
	Absorb(r fo.Report) error
	// Count returns the number of contributions absorbed so far.
	Count() int
}

// StripedSink is an optional Sink extension for concurrent ingestion:
// backends whose contributions already arrive on many goroutines (HTTP
// handlers) fold each one shard-locally through
// AbsorbStripe instead of serializing every report through one Absorb loop.
// AbsorbStripe is safe for concurrent use (including on the same stripe);
// aggregation is order-independent integer counting, so striped folds are
// bit-identical to serialized ones. Backends must check Stripes() > 1
// before taking the concurrent path — a sink that cannot stripe reports
// one stripe and rejects AbsorbStripe.
type StripedSink interface {
	Sink
	// Stripes returns the number of shard-local stripes, 1 when the sink
	// has no concurrent entry point.
	Stripes() int
	// AbsorbStripe folds one report into the given stripe. Callers
	// spread load deterministically, e.g. user id modulo Stripes.
	AbsorbStripe(stripe int, r fo.Report) error
}

// CounterSink is an optional Sink extension for distributed ingestion:
// cluster replicas fold their shard's reports into local aggregators and
// ship whole integer counter frames (fo.CounterFrame) to the coordinator,
// which absorbs each frame here instead of re-folding individual
// contributions. Counter merges are commutative integer addition, so a
// frame-merged round is bit-identical to folding every underlying report
// into one sink. Collectors serialize AbsorbCounters with Absorb, like
// every Sink method.
type CounterSink interface {
	Sink
	// AbsorbCounters folds one exported counter frame into the sink. It
	// rejects frames whose shape or dimensions do not match the sink's
	// aggregator.
	AbsorbCounters(f fo.CounterFrame) error
}

// CounterExporter is an optional Sink extension: sinks backed by a
// counter-based aggregator expose their folded integer counter state, so
// an ingestion backend can record each round's closing counters in its
// audit trail (internal/history) without knowing the sink's concrete
// type. Exporting must not disturb the sink — the frame is a copy.
type CounterExporter interface {
	// ExportCounters returns the sink's counter state as a
	// self-describing frame.
	ExportCounters() (fo.CounterFrame, error)
}

// SinkCounters exports the sink's counter state when it (or a wrapper)
// supports it, and says which sinks do not.
func SinkCounters(s Sink) (fo.CounterFrame, error) {
	ce, ok := s.(CounterExporter)
	if !ok {
		return fo.CounterFrame{}, fmt.Errorf("collect: sink %T does not export counters", s)
	}
	return ce.ExportCounters()
}

// Striper is an optional Collector extension: backends whose ingestion is
// concurrent advertise how many shard-local stripes a round aggregator
// should expose so server folds scale with cores. Env.NewRoundAggregator
// consults it when a mechanism asks its environment for a round aggregator.
type Striper interface {
	// PreferredStripes returns the stripe count ingestion scales best
	// with; values < 2 select the plain serialized aggregator.
	PreferredStripes() int
}

// Framed is an optional Collector extension for network backends: it
// reports the per-contribution framing overhead the backend's wire format
// adds on top of the payload fo.Report.Size, so communication metrics
// stay comparable across wire encodings (serve.Backend's JSON vs binary
// batches) instead of charging every backend the bare payload bytes.
type Framed interface {
	// FrameOverhead returns the extra wire bytes the backend's encoding
	// adds for one contribution whose payload is the given size.
	FrameOverhead(payload int) int
}

// Request describes one collection round: ask the listed users to perturb
// their current value at timestamp T with budget Eps. A nil Users slice
// means "all users" (an empty non-nil slice means none).
type Request struct {
	T     int
	Users []int
	Eps   float64
}

// Validate checks the round against a population of n users: the budget
// must be positive and finite (NaN and +Inf fail) and every listed user in
// [0, n).
func (r Request) Validate(n int) error {
	if !(r.Eps > 0) || math.IsInf(r.Eps, 1) {
		return fmt.Errorf("collect: eps %v is not positive and finite", r.Eps)
	}
	for _, u := range r.Users {
		if u < 0 || u >= n {
			return fmt.Errorf("collect: unknown user %d (population %d)", u, n)
		}
	}
	return nil
}

// forEachUser visits the round's users in request order (all n when Users
// is nil), stopping at the first error.
func (r Request) forEachUser(n int, fn func(u int) error) error {
	if r.Users == nil {
		for u := 0; u < n; u++ {
			if err := fn(u); err != nil {
				return err
			}
		}
		return nil
	}
	for _, u := range r.Users {
		if err := fn(u); err != nil {
			return err
		}
	}
	return nil
}

// Collector is a pluggable ingestion backend: it gathers one round of
// perturbed contributions from the population and folds them into a sink.
// Implementations must validate the request (Request.Validate), serialize
// Absorb calls, and surface failures as errors rather than hangs.
type Collector interface {
	// N returns the population size.
	N() int
	// Collect runs one collection round, folding every gathered
	// contribution into sink.
	Collect(req Request, sink Sink) error
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

// AggregatorSink folds a round into a streaming fo.Aggregator
// (the plain per-oracle aggregator or the striped one), keeping server
// state at O(d).
type AggregatorSink struct {
	Agg fo.Aggregator
}

// Absorb implements Sink.
func (s AggregatorSink) Absorb(r fo.Report) error { return s.Agg.Add(r) }

// Count implements Sink.
func (s AggregatorSink) Count() int { return s.Agg.Reports() }

// stripeFolder is the fo-side concurrent fold entry point
// (fo.StripedAggregator).
type stripeFolder interface {
	Stripes() int
	AddStripe(stripe int, r fo.Report) error
}

// Stripes implements StripedSink: the wrapped aggregator's stripe count
// when it supports concurrent folding (fo.StripedAggregator), 1 otherwise.
func (s AggregatorSink) Stripes() int {
	if sf, ok := s.Agg.(stripeFolder); ok {
		return sf.Stripes()
	}
	return 1
}

// AbsorbStripe implements StripedSink by folding into the wrapped
// aggregator's stripe. It rejects sinks without a concurrent entry point —
// callers must check Stripes() > 1 first.
func (s AggregatorSink) AbsorbStripe(stripe int, r fo.Report) error {
	sf, ok := s.Agg.(stripeFolder)
	if !ok {
		return fmt.Errorf("collect: aggregator %T has no concurrent stripe entry point", s.Agg)
	}
	return sf.AddStripe(stripe, r)
}

// AbsorbCounters implements CounterSink by merging the frame into the
// wrapped aggregator's counters.
func (s AggregatorSink) AbsorbCounters(f fo.CounterFrame) error {
	return fo.MergeCounters(s.Agg, f)
}

// ExportCounters implements CounterExporter via the wrapped aggregator.
func (s AggregatorSink) ExportCounters() (fo.CounterFrame, error) {
	return fo.ExportCounters(s.Agg)
}
