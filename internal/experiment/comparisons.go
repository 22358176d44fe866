package experiment

// planCompareCDP declares the trust-gap comparison: the centralized
// w-event DP baselines (Laplace noise on the true histogram; Kellaris
// BD/BA) against their LDP counterparts at the same (ε, w), by MAE on the
// Sin stream. CDP errors should be orders of magnitude below LDP ones —
// the price of removing the trusted aggregator. The CDP baselines are
// ordinary cells: Execute recognizes the CDP-* method names and runs them
// over the true histograms in the centralized trust model, so they
// journal, dedupe, and resume like every other cell. Under -audit a
// second table reports every row's maximum window loss and violation
// count from the same runs.
func (c *Config) planCompareCDP() Plan {
	epsVals := []float64{0.5, 1, 2}
	cols := []string{"0.5", "1.0", "2.0"}
	rows := []string{"CDP-Uniform", "CDP-BD", "CDP-BA", "LBU", "LBA", "LPU", "LPA"}
	w := 20

	p := Plan{ID: "compare-cdp"}
	ti := p.addTable(Table{
		Title:    "Comparison: CDP vs LDP at the same (eps, w=20), MAE on Sin",
		XLabel:   "method",
		ColHeads: cols,
		RowHeads: rows,
	})
	audit := -1
	if c.Audit {
		audit = p.addTable(Table{
			Title:    "Audit: CDP vs LDP at the same (eps, w=20) on Sin, max window loss and violations",
			XLabel:   "method",
			ColHeads: []string{"0.5 loss", "0.5 viol", "1.0 loss", "1.0 viol", "2.0 loss", "2.0 viol"},
			RowHeads: rows,
		})
	}
	for r, method := range rows {
		for col, eps := range epsVals {
			spec := c.runSpec(RunSpec{
				Stream: StreamSpec{Dataset: "Sin", PopScale: c.popScale()},
				Method: method, Eps: eps, W: w,
			})
			p.Cells = append(p.Cells, Cell{Table: ti, Row: r, Col: col, Metric: MetricMAE, Spec: spec, Reps: c.reps()})
			if audit >= 0 {
				p.Cells = append(p.Cells,
					Cell{Table: audit, Row: r, Col: 2 * col, Metric: MetricMaxWindowLoss, Spec: spec, Reps: c.reps()},
					Cell{Table: audit, Row: r, Col: 2*col + 1, Metric: MetricViolations, Spec: spec, Reps: c.reps()})
			}
		}
	}
	return p
}

// CompareCDP runs the CDP-vs-LDP comparison (compatibility wrapper).
func (c *Config) CompareCDP() ([]Table, error) { return c.runPlan(c.planCompareCDP()) }

// planAblationFilter declares the server-side post-processing ablation
// (free under DP): raw LPU releases vs Kalman-filtered (using the oracle's
// closed-form release variance) vs EWMA-smoothed, by MSE. The raw and
// filtered rows select different metrics from the SAME run, so each
// (dataset, method) pair executes once and the filter variants ride along
// as derived metrics.
func (c *Config) planAblationFilter() Plan {
	cols := []string{"LNS", "Sin"}
	rows := []struct {
		head   string
		method string
		metric string
	}{
		{"LPU raw", "LPU", MetricMSE},
		{"LPU+Kalman", "LPU", MetricKalmanMSE},
		{"LPU+EWMA(0.3)", "LPU", MetricEWMA03MSE},
		{"LBU raw", "LBU", MetricMSE},
		{"LBU+Kalman", "LBU", MetricKalmanMSE},
	}
	heads := make([]string, len(rows))
	for i, r := range rows {
		heads[i] = r.head
	}
	p := Plan{ID: "ablation-filter"}
	ti := p.addTable(Table{
		Title:    "Ablation: server-side filtering of releases (eps=1, w=20), MSE",
		XLabel:   "pipeline",
		ColHeads: cols,
		RowHeads: heads,
	})
	for r, row := range rows {
		for col, ds := range cols {
			p.Cells = append(p.Cells, Cell{
				Table: ti, Row: r, Col: col, Metric: row.metric,
				Spec: c.runSpec(RunSpec{
					Stream: StreamSpec{Dataset: ds, PopScale: c.popScale()},
					Method: row.method, Eps: 1, W: 20,
				}),
				Reps: c.reps(),
			})
		}
	}
	return p
}

// AblationFilter runs the filtering ablation (compatibility wrapper).
func (c *Config) AblationFilter() ([]Table, error) { return c.runPlan(c.planAblationFilter()) }
