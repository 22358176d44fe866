package experiment

import (
	"fmt"
	"time"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// Ablation experiments beyond the paper's figures, probing the design
// choices DESIGN.md calls out.

// planAblationFO declares the frequency-oracle swap under the best
// adaptive method on each dataset family: MRE of LPA with every registered
// oracle (ε = 1, w = 20) — GRR vs OUE vs SUE vs OLH vs cohort-hashed
// OLH-C, plus the bit-packed unary wire formats, which must match their
// unpacked counterparts' accuracy while shrinking reports ~8x. GRR should
// win on d = 2; OUE/OLH/OLH-C should close the gap (or win) on the
// large-domain traces. The row set is derived from fo.Names, so a newly
// registered frequency oracle joins the grid automatically; the Mean
// oracle releases a mean, not a histogram over the dataset's domain.
func (c *Config) planAblationFO() Plan {
	var oracles []string
	for _, name := range fo.Names() {
		if name != fo.NewMean().Name() {
			oracles = append(oracles, name)
		}
	}
	datasets := []string{"Sin", "Taxi", "Foursquare"}
	if len(c.Datasets) > 0 {
		datasets = c.Datasets
	}
	p := Plan{ID: "ablation-fo"}
	ti := p.addTable(Table{
		Title:    "Ablation: frequency oracle under LPA (eps=1, w=20), MRE",
		XLabel:   "oracle",
		ColHeads: datasets,
		RowHeads: oracles,
	})
	for r, oracle := range oracles {
		for col, ds := range datasets {
			p.Cells = append(p.Cells, Cell{
				Table: ti, Row: r, Col: col, Metric: MetricMRE,
				Spec: c.runSpec(RunSpec{
					Stream: StreamSpec{Dataset: ds, PopScale: c.popScale()},
					Method: "LPA", Eps: 1, W: 20, Oracle: oracle,
				}),
				Reps: c.reps(),
			})
		}
	}
	return p
}

// AblationFO runs the oracle-swap ablation (compatibility wrapper).
func (c *Config) AblationFO() ([]Table, error) { return c.runPlan(c.planAblationFO()) }

// planAblationUMin declares the sweep of LPD's publication-user floor
// u_min: too small wastes publications on useless tiny groups, too large
// suppresses publication.
func (c *Config) planAblationUMin() Plan {
	uMins := []int{1, 10, 100, 1000}
	cols := []string{"1", "10", "100", "1000"}
	datasets := []string{"LNS", "Sin"}
	if len(c.Datasets) > 0 {
		datasets = c.Datasets
	}
	p := Plan{ID: "ablation-umin"}
	ti := p.addTable(Table{
		Title:    "Ablation: LPD u_min floor (eps=1, w=20), MRE",
		XLabel:   "dataset",
		ColHeads: cols,
		RowHeads: datasets,
	})
	for r, ds := range datasets {
		for col, uMin := range uMins {
			p.Cells = append(p.Cells, Cell{
				Table: ti, Row: r, Col: col, Metric: MetricMRE,
				Spec: c.runSpec(RunSpec{
					Stream: StreamSpec{Dataset: ds, PopScale: c.popScale()},
					Method: "LPD", Eps: 1, W: 20, UMin: uMin,
				}),
				Reps: c.reps(),
			})
		}
	}
	return p
}

// AblationUMin runs the u_min ablation (compatibility wrapper).
func (c *Config) AblationUMin() ([]Table, error) { return c.runPlan(c.planAblationUMin()) }

// planAblationSplit declares the sweep of the M1/M2 resource split of the
// adaptive methods: the paper fixes it at 1/2; this quantifies the
// sensitivity of that choice. The 0.50 column normalizes to the same
// content key as the default split, so it shares runs with the paper
// figures.
func (c *Config) planAblationSplit() Plan {
	fracs := []float64{0.25, 0.5, 0.75}
	cols := []string{"0.25", "0.50", "0.75"}
	methods := []string{"LBA", "LPA", "LBD", "LPD"}
	p := Plan{ID: "ablation-split"}
	ti := p.addTable(Table{
		Title:    "Ablation: M1 resource fraction on LNS (eps=1, w=20), MRE",
		XLabel:   "M1 frac",
		ColHeads: cols,
		RowHeads: methods,
	})
	for r, method := range methods {
		for col, frac := range fracs {
			p.Cells = append(p.Cells, Cell{
				Table: ti, Row: r, Col: col, Metric: MetricMRE,
				Spec: c.runSpec(RunSpec{
					Stream: StreamSpec{Dataset: "LNS", PopScale: c.popScale()},
					Method: method, Eps: 1, W: 20, DisFraction: frac,
				}),
				Reps: c.reps(),
			})
		}
	}
	return p
}

// AblationSplit runs the resource-split ablation (compatibility wrapper).
func (c *Config) AblationSplit() ([]Table, error) { return c.runPlan(c.planAblationSplit()) }

// planAblationOLH wraps the OLH fold-cost grid as a Direct plan: its cells
// are wall-clock measurements, not seeded runs, so they are executed
// imperatively and never journaled (a resumed run re-times them).
func (c *Config) planAblationOLH() Plan {
	return Plan{ID: "ablation-olh", Direct: c.AblationOLHFold}
}

// AblationOLHFold measures the server-side cost split of OLH against
// cohort-hashed OLH-C across domain sizes: per-report fold cost (Add),
// the fold speedup, and the once-per-round Estimate cost. OLH folds in
// O(d) per report — it rehashes the whole domain against the report's
// private seed — so its fold cost grows linearly with d; OLH-C folds into
// a k×g cohort matrix in O(1) and pays a single ⌈k/m⌉·d-lookup
// reconstruction at Estimate (m cohorts packed per bucket-table entry).
// At the large domains where local hashing matters, the fold speedup is
// orders of magnitude (the acceptance bar is 10x at d = 65536).
//
// The Estimate rows time a warm call — what a stream pays every round.
// OLH-C's first Estimate at a new g also builds the oracle's bucket table
// (k·d hashes, once per oracle and g); that one-time cost is its own row,
// measured as the first call minus a warm one.
//
// Timings are measurements, not deterministic outputs; the report count
// scales with -scale so tiny test configs stay fast.
func (c *Config) AblationOLHFold() ([]Table, error) {
	domains := []int{256, 4096, 65536}
	cols := []string{"256", "4096", "65536"}
	const eps = 1.0
	reports := int(10000 * c.popScale())
	if reports < 50 {
		reports = 50
	}

	fold := Table{
		Title:    fmt.Sprintf("Ablation: OLH vs OLH-C server fold, ns/report (eps=%g, %d reports)", eps, reports),
		XLabel:   "oracle",
		ColHeads: cols,
		RowHeads: []string{"OLH", "OLH-C", "fold speedup (x)"},
		Cells:    [][]float64{make([]float64, len(cols)), make([]float64, len(cols)), make([]float64, len(cols))},
	}
	estimate := Table{
		Title:    "Ablation: OLH vs OLH-C per-round Estimate, ms",
		XLabel:   "oracle",
		ColHeads: cols,
		RowHeads: []string{"OLH", "OLH-C", "OLH-C one-time table build"},
		Cells:    [][]float64{make([]float64, len(cols)), make([]float64, len(cols)), make([]float64, len(cols))},
	}
	timeEstimate := func(agg fo.Aggregator) (float64, error) {
		start := time.Now()
		_, err := agg.Estimate()
		return float64(time.Since(start).Nanoseconds()) / 1e6, err
	}

	for col, d := range domains {
		for row, name := range []string{"OLH", "OLH-C"} {
			oracle, err := fo.New(name, d)
			if err != nil {
				return nil, err
			}
			src := ldprand.New(c.Seed + uint64(1000*row+col))
			perturbed := make([]fo.Report, reports)
			for i := range perturbed {
				perturbed[i] = oracle.Perturb(i%d, eps, src)
			}
			agg, err := oracle.NewAggregator(eps)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, r := range perturbed {
				if err := agg.Add(r); err != nil {
					return nil, err
				}
			}
			fold.Cells[row][col] = float64(time.Since(start).Nanoseconds()) / float64(reports)
			first, err := timeEstimate(agg)
			if err != nil {
				return nil, err
			}
			warm, err := timeEstimate(agg)
			if err != nil {
				return nil, err
			}
			estimate.Cells[row][col] = warm
			if name == "OLH-C" {
				estimate.Cells[2][col] = max(first-warm, 0)
			}
		}
		if olhc := fold.Cells[1][col]; olhc > 0 {
			fold.Cells[2][col] = fold.Cells[0][col] / olhc
		}
	}
	return []Table{fold, estimate}, nil
}
