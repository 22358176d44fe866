package fo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// errStripedEstimated reports an Add after Estimate.
var errStripedEstimated = errors.New("fo: striped aggregator already estimated")

// StripedAggregator is the concurrent shard fold entry point: per-stripe
// counter sets guarded by per-stripe locks, so many producer goroutines —
// HTTP ingestion handlers — fold reports in parallel from wherever they
// already run, instead of funneling every report through one serialized
// Absorb loop.
//
// All methods are safe for concurrent use. AddStripe(i, r) folds into
// stripe i (callers spread load by hashing, e.g. user id modulo Stripes);
// Add round-robins across stripes. Estimate merges the stripes by plain
// addition — integer counter addition commutes — so a striped fold is
// bit-identical to the plain Aggregator on the same reports, regardless of
// stripe assignment or interleaving. Estimate is terminal until Reset:
// later Adds fail; repeated Estimates return the same result. Reset
// re-arms every stripe in place for the next round.
type StripedAggregator struct {
	// mu is write-held by Estimate and Reset and read-held by the fold
	// paths, so no fold is in flight while stripes merge or clear.
	mu      sync.RWMutex
	merged  bool
	stripes []lockedStripe
	next    atomic.Uint64
}

// lockedStripe is one stripe's private counters plus its fold lock.
type lockedStripe struct {
	mu  sync.Mutex
	agg shardMergeable //ldpids:guardedby mu concurrent folds tear the counters unless every access is inside the stripe's locked region
}

// NewStripedAggregator returns a concurrent aggregator for reports
// perturbed with budget eps, striped across the given number of counter
// sets (stripes < 1 selects one per CPU). The oracle's aggregator must be
// one of the built-in counter-based implementations.
func NewStripedAggregator(o Oracle, eps float64, stripes int) (*StripedAggregator, error) {
	if stripes < 1 {
		stripes = runtime.GOMAXPROCS(0)
	}
	s := &StripedAggregator{stripes: make([]lockedStripe, stripes)}
	for i := range s.stripes {
		agg, err := o.NewAggregator(eps)
		if err != nil {
			return nil, err
		}
		sm, ok := agg.(shardMergeable)
		if !ok {
			return nil, fmt.Errorf("fo: %s aggregator %T does not support striped merging", o.Name(), agg)
		}
		//ldpids:unshared s has not been returned yet, so no goroutine can reach this stripe
		s.stripes[i].agg = sm
	}
	return s, nil
}

// Stripes returns the number of stripes.
func (s *StripedAggregator) Stripes() int { return len(s.stripes) }

// AddStripe folds one report into stripe i. It is safe to call from many
// goroutines at once, including on the same stripe.
func (s *StripedAggregator) AddStripe(i int, r Report) error {
	if i < 0 || i >= len(s.stripes) {
		return fmt.Errorf("fo: stripe %d outside [0,%d)", i, len(s.stripes))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.merged {
		return errStripedEstimated
	}
	st := &s.stripes[i]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.agg.Add(r)
}

// Add implements Aggregator by dispatching the report to the next stripe
// round-robin. Unlike the plain aggregators it is safe for concurrent use.
func (s *StripedAggregator) Add(r Report) error {
	i := int((s.next.Add(1) - 1) % uint64(len(s.stripes)))
	return s.AddStripe(i, r)
}

// Reports implements Aggregator: the number of reports folded so far
// across all stripes.
func (s *StripedAggregator) Reports() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.merged {
		// All counters live in stripe 0 after the merge. Taking its lock
		// keeps every read of stripe state inside a stripe's locked
		// region (stripelock analyzer), instead of relying on the merged
		// flag to prove no fold can be in flight.
		st := &s.stripes[0]
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.agg.Reports()
	}
	total := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		total += st.agg.Reports()
		st.mu.Unlock()
	}
	return total
}

// Estimate implements Aggregator: it merges the stripe counters (waiting
// out any in-flight folds) and finishes with the shared unbiased estimator.
// Further Adds fail after the first Estimate; repeated Estimates return the
// same result.
func (s *StripedAggregator) Estimate() ([]float64, error) { return s.estimateInto(nil) }

// estimateInto implements reusable: Estimate, finished into dst.
func (s *StripedAggregator) estimateInto(dst []float64) ([]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.merged {
		s.merged = true
		for i := range s.stripes[1:] {
			if err := s.stripes[0].agg.mergeShard(s.stripes[i+1].agg); err != nil {
				return nil, err
			}
		}
	}
	return s.stripes[0].agg.estimateInto(dst)
}

// reset implements reusable: every stripe is re-armed (waiting out any
// in-flight folds) and the merge undone, so Adds succeed again. The
// stripes share one oracle, so a refused budget is refused by stripe 0
// before any stripe is touched.
func (s *StripedAggregator) reset(eps float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.stripes {
		if err := s.stripes[i].agg.reset(eps); err != nil {
			return err
		}
	}
	s.merged = false
	s.next.Store(0)
	return nil
}
