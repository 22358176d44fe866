package fo

import (
	"fmt"
)

// FrameShape selects a CounterFrame's counter layout. The zero value is
// deliberately invalid — mirroring Report.Kind, a frame whose shape was
// never set explicitly must fail loudly at Validate instead of being
// misread as per-element counts (the PR 1 KindValue bug class, at the
// counter level).
type FrameShape uint8

const (
	// FrameCounts is per-element counter state: Counts[k] is the number of
	// reports supporting element k (GRR, OUE, SUE, OLH after rehashing).
	FrameCounts FrameShape = iota + 1
	// FrameCohort is cohort-matrix counter state: Counts is the row-major
	// K×G matrix of (cohort, bucket) report counts (OLH-C).
	FrameCohort
)

// String renders the shape for diagnostics.
func (s FrameShape) String() string {
	switch s {
	case FrameCounts:
		return "counts"
	case FrameCohort:
		return "cohort"
	default:
		return fmt.Sprintf("FrameShape(%d)", uint8(s))
	}
}

// CounterFrame is one aggregator's integer counter state, exported for
// shipment across a process boundary: a cluster ingestion replica folds
// its shard's reports locally and ships one frame per round to the
// coordinator instead of forwarding raw reports. Counter merges are
// commutative integer addition, so merging frames in any grouping is
// bit-identical to folding every underlying report into one aggregator —
// the collecttest bit-identity bar extended across processes.
//
// Shape is explicit and mandatory: every consumer must switch on it (or
// reject it), never guess the layout from the slice length.
type CounterFrame struct {
	// Shape selects the Counts layout; the zero value fails Validate.
	Shape FrameShape
	// N is the number of reports folded into the counters.
	N int
	// K and G are the cohort-matrix dimensions (FrameCohort only):
	// Counts[c*G+b] counts reports from cohort c in bucket b.
	K, G int
	// Counts is the counter payload, laid out per Shape.
	Counts []int64
}

// Validate checks the frame's structural invariants: a known shape, a
// non-negative report count, no negative counter (counters only ever
// count reports, so no honest aggregator exports one), and (for cohort
// frames) matrix dimensions that agree with the payload length.
func (f CounterFrame) Validate() error {
	if f.N < 0 {
		return fmt.Errorf("fo: counter frame with negative report count %d", f.N)
	}
	var signs int64
	for _, v := range f.Counts {
		signs |= v
	}
	if signs < 0 {
		for i, v := range f.Counts {
			if v < 0 {
				return fmt.Errorf("fo: counter frame with negative counter %d at index %d", v, i)
			}
		}
	}
	switch f.Shape {
	case FrameCounts:
		if f.K != 0 || f.G != 0 {
			return fmt.Errorf("fo: counts frame carries cohort dimensions %dx%d", f.K, f.G)
		}
		return nil
	case FrameCohort:
		if f.K < 1 || f.G < 1 {
			return fmt.Errorf("fo: cohort frame with non-positive dimensions %dx%d", f.K, f.G)
		}
		if len(f.Counts) != f.K*f.G {
			return fmt.Errorf("fo: cohort frame payload has %d counters, want %d (%dx%d)",
				len(f.Counts), f.K*f.G, f.K, f.G)
		}
		return nil
	default:
		return fmt.Errorf("fo: counter frame with unknown shape %s", f.Shape)
	}
}

// take makes f hold the counter state of g, a view that may alias an
// aggregator's live counters: a copy of it into f.Counts' storage (grown
// only when too small), or — sum set — f's own state plus g's, which must
// have the same shape and dimensions.
func (f *CounterFrame) take(g CounterFrame, sum bool) error {
	if !sum {
		g.Counts = append(f.Counts[:0], g.Counts...)
		*f = g
		return nil
	}
	if g.Shape != f.Shape || g.K != f.K || g.G != f.G || len(g.Counts) != len(f.Counts) {
		return fmt.Errorf("fo: cannot add %s frame (%d counters, %dx%d) into %s frame (%d counters, %dx%d)",
			g.Shape, len(g.Counts), g.K, g.G, f.Shape, len(f.Counts), f.K, f.G)
	}
	f.N += g.N
	for i, v := range g.Counts {
		f.Counts[i] += v
	}
	return nil
}

// frameCarrier is satisfied by every built-in aggregator (via countCore or
// cohortCore) and by StripedAggregator: it exports the aggregator's
// counter state into a CounterFrame (CounterFrame.take: overwriting dst,
// or summing into it) and merges a compatible frame back in. It stays
// unexported like shardMergeable — ExportCounters/MergeCounters are the
// public entry points, so the validation there cannot be skipped.
type frameCarrier interface {
	exportFrame(dst *CounterFrame, sum bool) error
	mergeFrame(f CounterFrame) error
}

// ExportCounters returns the aggregator's folded integer counter state as
// a self-describing CounterFrame (a copy — later folds do not alias it).
// It fails for aggregators that are not counter-based.
func ExportCounters(agg Aggregator) (CounterFrame, error) {
	var f CounterFrame
	err := ExportCountersInto(agg, &f)
	return f, err
}

// ExportCountersInto is ExportCounters into a frame the caller keeps: dst
// is overwritten, reusing its Counts storage when it is large enough, so
// a replica that exports once per round allocates nothing after the first.
func ExportCountersInto(agg Aggregator, dst *CounterFrame) error {
	fc, ok := agg.(frameCarrier)
	if !ok {
		return fmt.Errorf("fo: %T does not support counter export", agg)
	}
	return fc.exportFrame(dst, false)
}

// MergeCounters folds an exported counter frame into the aggregator, as
// if every report behind the frame had been added locally: integer
// addition commutes, so the merged estimate is bit-identical regardless
// of how reports were partitioned into frames. The frame must match the
// aggregator's oracle shape and dimensions.
func MergeCounters(agg Aggregator, f CounterFrame) error {
	if err := f.Validate(); err != nil {
		return err
	}
	fc, ok := agg.(frameCarrier)
	if !ok {
		return fmt.Errorf("fo: %T does not support counter merging", agg)
	}
	return fc.mergeFrame(f)
}

// exportFrame implements frameCarrier for every count-based aggregator.
func (c *countCore) exportFrame(dst *CounterFrame, sum bool) error {
	return dst.take(CounterFrame{Shape: FrameCounts, N: c.n, Counts: c.counts}, sum)
}

// mergeFrame implements frameCarrier for every count-based aggregator.
func (c *countCore) mergeFrame(f CounterFrame) error {
	if f.Shape != FrameCounts {
		return fmt.Errorf("fo: cannot merge %s frame into a count-based aggregator", f.Shape)
	}
	if len(f.Counts) != len(c.counts) {
		return fmt.Errorf("fo: counts frame has %d counters, aggregator wants %d", len(f.Counts), len(c.counts))
	}
	c.n += f.N
	// A population-division round leaves most counters zero: skipping
	// them halves the memory a sparse merge touches, at no cost to a dense
	// one.
	for k, v := range f.Counts {
		if v != 0 {
			c.counts[k] += v
		}
	}
	return nil
}

// exportFrame implements frameCarrier for cohort-matrix aggregators.
func (c *cohortCore) exportFrame(dst *CounterFrame, sum bool) error {
	return dst.take(CounterFrame{Shape: FrameCohort, N: c.n, K: c.k, G: c.g, Counts: c.matrix}, sum)
}

// mergeFrame implements frameCarrier for cohort-matrix aggregators.
func (c *cohortCore) mergeFrame(f CounterFrame) error {
	if f.Shape != FrameCohort {
		return fmt.Errorf("fo: cannot merge %s frame into a cohort-based aggregator", f.Shape)
	}
	if f.K != c.k || f.G != c.g {
		return fmt.Errorf("fo: cohort frame is %dx%d, aggregator wants %dx%d", f.K, f.G, c.k, c.g)
	}
	c.n += f.N
	for i, v := range f.Counts {
		c.matrix[i] += v
	}
	return nil
}

// exportFrame implements frameCarrier: the summed counter state of every
// stripe, each added straight into dst under its stripe lock (like
// Reports) rather than copied out first. After Estimate merged the
// stripes, stripe 0 alone holds the total (the merge does not zero its
// sources), so only it is exported.
func (s *StripedAggregator) exportFrame(dst *CounterFrame, sum bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stripes := s.stripes
	if s.merged {
		stripes = stripes[:1]
	}
	for i := range stripes {
		if err := stripes[i].exportFrame(dst, sum || i > 0); err != nil {
			return err
		}
	}
	return nil
}

// exportFrame exports one stripe's aggregator under the stripe lock.
func (st *lockedStripe) exportFrame(dst *CounterFrame, sum bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	fc, ok := st.agg.(frameCarrier)
	if !ok {
		return fmt.Errorf("fo: stripe aggregator %T does not support counter export", st.agg)
	}
	return fc.exportFrame(dst, sum)
}

// mergeFrame implements frameCarrier: the frame folds into stripe 0,
// under its stripe lock, concurrently with folds into other stripes.
// Merging after Estimate fails like AddStripe does.
func (s *StripedAggregator) mergeFrame(f CounterFrame) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.merged {
		return errStripedEstimated
	}
	st := &s.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	fc, ok := st.agg.(frameCarrier)
	if !ok {
		return fmt.Errorf("fo: stripe aggregator %T does not support counter merging", st.agg)
	}
	return fc.mergeFrame(f)
}
