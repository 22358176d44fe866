package collect

import (
	"fmt"
	"sync/atomic"

	"ldpids/internal/comm"
	"ldpids/internal/fo"
)

// Env drives a Collector one timestamp at a time and adapts it to the
// mechanism-facing collection interfaces: it satisfies mechanism.Env
// (frequency mechanisms) and numeric.Env (mean mechanisms), layering communication accounting and an optional per-round
// observer on top of any backend. The driver calls Advance once per
// timestamp before the mechanism's Step.
type Env struct {
	// Observer, when non-nil, is invoked with every validated collection
	// round before it reaches the backend. The privacy accountant hooks in
	// here.
	Observer func(t int, users []int, eps float64)

	c       Collector
	counter *comm.Counter
	t       int

	// agg is the last round aggregator NewRoundAggregator handed out, for
	// oracle aggFor; aggIdle is set once a CollectStream folding into it has
	// returned — backends drain every fold first — so the next round of the
	// same oracle may re-arm it.
	agg     fo.Aggregator
	aggFor  fo.Oracle
	aggIdle bool
}

// NewEnv returns an Env over the given backend.
func NewEnv(c Collector) *Env {
	return &Env{c: c, counter: comm.NewCounter(c.N())}
}

// Advance moves the environment to timestamp t and opens a new
// communication accounting period.
func (e *Env) Advance(t int) {
	e.t = t
	e.counter.BeginTimestamp()
}

// T implements mechanism.Env and numeric.Env.
func (e *Env) T() int { return e.t }

// N implements mechanism.Env and numeric.Env.
func (e *Env) N() int { return e.c.N() }

// Backend returns the underlying Collector.
func (e *Env) Backend() Collector { return e.c }

// Stats returns the accumulated communication statistics.
func (e *Env) Stats() comm.Stats { return e.counter.Stats() }

// countingSink tracks report and byte totals on the way into the wrapped
// sink, feeding the communication accountant. Counters are atomic and the
// striped entry point forwards to the inner sink, so backends that fold
// concurrently (StripedSink) keep their shard-local path through the
// accounting layer. Bytes include the backend's per-contribution framing
// overhead (Framed) so network transports report comparable wire totals.
type countingSink struct {
	inner   Sink
	frame   func(payload int) int // nil means no framing overhead
	reports atomic.Int64
	bytes   atomic.Int64
}

// observe records one absorbed contribution.
func (s *countingSink) observe(c Contribution) {
	size := c.Size()
	if s.frame != nil {
		size += s.frame(size)
	}
	s.reports.Add(1)
	s.bytes.Add(int64(size))
}

func (s *countingSink) Absorb(c Contribution) error {
	if err := s.inner.Absorb(c); err != nil {
		return err
	}
	s.observe(c)
	return nil
}

// Stripes implements StripedSink by forwarding the inner sink's stripe
// count (1 when the inner sink cannot stripe).
func (s *countingSink) Stripes() int {
	if ss, ok := s.inner.(StripedSink); ok {
		return ss.Stripes()
	}
	return 1
}

// AbsorbStripe implements StripedSink.
func (s *countingSink) AbsorbStripe(stripe int, c Contribution) error {
	ss, ok := s.inner.(StripedSink)
	if !ok {
		return s.Absorb(c)
	}
	if err := ss.AbsorbStripe(stripe, c); err != nil {
		return err
	}
	s.observe(c)
	return nil
}

// AbsorbCounters implements CounterSink by forwarding whole counter
// frames (cluster replicas shipping merged shard counters) and accounting
// them as the frame's report count and the size of its wire encoding
// (fo.CounterFrame.WireSize: what a shipment of it carries); the backend's
// per-contribution framing does not apply to a frame shipment.
func (s *countingSink) AbsorbCounters(f fo.CounterFrame) error {
	cs, ok := s.inner.(CounterSink)
	if !ok {
		return fmt.Errorf("collect: sink %T cannot absorb counter frames", s.inner)
	}
	if err := cs.AbsorbCounters(f); err != nil {
		return err
	}
	s.reports.Add(int64(f.N))
	s.bytes.Add(int64(f.WireSize()))
	return nil
}

// ExportCounters implements CounterExporter by forwarding to the inner
// sink, so the accounting wrapper stays transparent to audit logging.
func (s *countingSink) ExportCounters() (fo.CounterFrame, error) {
	return SinkCounters(s.inner)
}

func (s *countingSink) Count() int { return int(s.reports.Load()) }

// collect runs one validated, observed, accounted round through the
// backend.
func (e *Env) collect(users []int, eps float64, numeric bool, sink Sink) error {
	req := Request{T: e.t, Users: users, Eps: eps, Numeric: numeric}
	if err := req.Validate(e.c.N()); err != nil {
		return err
	}
	if e.Observer != nil {
		e.Observer(e.t, users, eps)
	}
	cs := &countingSink{inner: sink}
	if f, ok := e.c.(Framed); ok {
		cs.frame = f.FrameOverhead
	}
	if err := e.c.Collect(req, cs); err != nil {
		return err
	}
	e.counter.Observe(int(cs.reports.Load()), int(cs.bytes.Load()))
	return nil
}

// NewRoundAggregator implements mechanism.Env: it returns the
// aggregator one collection round should fold into. Backends with
// concurrent ingestion (Striper) get a stripe-folding fo.StripedAggregator
// so the server fold scales with cores; everything else gets the oracle's
// plain aggregator. Striped and plain folds are bit-identical, so the
// choice never changes an estimate.
//
// The aggregator is valid until the next call: when the last one handed
// out was for the same oracle and its CollectStream has returned, it is
// re-armed (fo.Reset) and handed out again instead of allocating d-sized
// state every round. Anything else — a first round, another oracle, an
// aggregator fo cannot reset — gets a fresh one.
func (e *Env) NewRoundAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error) {
	if e.aggIdle && e.aggFor == o && fo.Reset(e.agg, eps) == nil {
		e.aggIdle = false
		return e.agg, nil
	}
	agg, err := e.newAggregator(o, eps)
	if err != nil {
		return nil, err
	}
	e.agg, e.aggFor, e.aggIdle = agg, o, false
	return agg, nil
}

// newAggregator builds a round aggregator, striped when the backend
// prefers it.
func (e *Env) newAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error) {
	if s, ok := e.c.(Striper); ok {
		if k := s.PreferredStripes(); k > 1 {
			return fo.NewStripedAggregator(o, eps, k)
		}
	}
	return o.NewAggregator(eps)
}

// CollectStream implements mechanism.Env: each report folds straight
// into agg, so a full-population round allocates no O(n) report buffer.
func (e *Env) CollectStream(users []int, eps float64, agg fo.Aggregator) error {
	err := e.collect(users, eps, false, AggregatorSink{Agg: agg})
	if agg == e.agg {
		e.aggIdle = true
	}
	return err
}

// CollectMean implements numeric.Env: a numeric round folded into a mean
// accumulator. It returns the mean of the perturbed values and the
// contribution count.
func (e *Env) CollectMean(users []int, eps float64) (mean float64, count int, err error) {
	sink := &MeanSink{}
	if err := e.collect(users, eps, true, sink); err != nil {
		return 0, 0, err
	}
	return sink.Mean(), sink.Count(), nil
}
