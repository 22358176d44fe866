package experiment

// planCompareGranularity declares the comparison contextualizing w-event
// LDP between the two classical granularities (the paper's Table 1):
// event-level (full ε every timestamp; utility ceiling but the per-window
// loss is w·ε) and finite user-level (ε split over the whole horizon;
// unusable noise and the stream must end). Reported per method: MRE and
// the maximum privacy loss any user accrued in a w-window, as measured by
// the accountant — so every cell runs audited, and the EventLevel baseline
// (which deliberately violates w-event LDP) must not set FailOnViolation.
func (c *Config) planCompareGranularity() Plan {
	w := 20
	eps := 1.0
	rows := []struct {
		head   string
		method string
	}{
		{"EventLevel", "EventLevel"},
		{"LBU (w-event)", "LBU"},
		{"LPA (w-event)", "LPA"},
		{"UserLevel(T)", "UserLevel"},
	}
	cols := []string{"MRE", "maxWindowLoss"}
	metricsOf := []string{MetricMRE, MetricMaxWindowLoss}
	heads := make([]string, len(rows))
	for i, r := range rows {
		heads[i] = r.head
	}

	p := Plan{ID: "compare-granularity"}
	ti := p.addTable(Table{
		Title:    "Comparison: privacy granularities on Sin (nominal eps=1, w=20)",
		XLabel:   "granularity",
		ColHeads: cols,
		RowHeads: heads,
	})
	for r, row := range rows {
		spec := c.runSpec(RunSpec{
			Stream: StreamSpec{Dataset: "Sin", PopScale: c.popScale()},
			Method: row.method, Eps: eps, W: w,
			// The accountant must observe every run here — its
			// MaxSpend IS the second column.
			Audit: true,
			// The granularity baselines are compared under the paper's
			// analysis oracle (GRR) regardless of -oracle.
			Oracle: "GRR",
		})
		for col := range cols {
			p.Cells = append(p.Cells, Cell{
				Table: ti, Row: r, Col: col, Metric: metricsOf[col],
				Spec: spec, Reps: c.reps(),
			})
		}
	}
	return p
}

// CompareGranularity runs the granularity comparison (compatibility
// wrapper).
func (c *Config) CompareGranularity() ([]Table, error) {
	return c.runPlan(c.planCompareGranularity())
}
