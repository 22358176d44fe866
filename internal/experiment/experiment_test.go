package experiment

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast: small populations, short streams.
func tinyConfig() *Config {
	return &Config{PopScale: 0.01, Seed: 99, Audit: true}
}

func TestStreamSpecDefaults(t *testing.T) {
	for _, ds := range DatasetNames {
		sp := StreamSpec{Dataset: ds}
		n, T, err := sp.defaults()
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if n <= 0 || T <= 0 {
			t.Fatalf("%s: bad defaults n=%d T=%d", ds, n, T)
		}
	}
	if _, _, err := (StreamSpec{Dataset: "bogus"}).defaults(); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestStreamSpecOverrides(t *testing.T) {
	sp := StreamSpec{Dataset: "LNS", N: 1234, T: 77}
	n, T, err := sp.defaults()
	if err != nil || n != 1234 || T != 77 {
		t.Fatalf("overrides ignored: n=%d T=%d err=%v", n, T, err)
	}
	sp = StreamSpec{Dataset: "LNS", PopScale: 0.01}
	n, _, _ = sp.defaults()
	if n != SyntheticN/100 {
		t.Fatalf("pop scale gave n=%d", n)
	}
	// Floor guard.
	sp = StreamSpec{Dataset: "LNS", PopScale: 0.00001}
	n, _, _ = sp.defaults()
	if n < 100 {
		t.Fatalf("pop floor violated: %d", n)
	}
}

func TestExecuteBasics(t *testing.T) {
	out, err := Execute(RunSpec{
		Stream: StreamSpec{Dataset: "Sin", N: 2000, T: 40},
		Method: "LPA", Eps: 1, W: 10, Seed: 5, Audit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.T != 40 || out.N != 2000 {
		t.Fatalf("outcome shape N=%d T=%d", out.N, out.T)
	}
	if out.MRE <= 0 || out.MSE <= 0 {
		t.Fatalf("suspicious zero error: MRE=%v MSE=%v", out.MRE, out.MSE)
	}
	if out.CFPU <= 0 || out.CFPU > 1.1/10 {
		t.Fatalf("LPA CFPU %v implausible", out.CFPU)
	}
	if out.PrivacyViolations != 0 {
		t.Fatalf("privacy violations: %d", out.PrivacyViolations)
	}
	if out.AUC < 0 || out.AUC > 1 {
		t.Fatalf("AUC %v", out.AUC)
	}
}

// TestAuditIsObserveOnly: turning the accountant on must not move a
// released bit — it draws no randomness and only watches the rounds.
func TestAuditIsObserveOnly(t *testing.T) {
	for _, method := range []string{"LBA", "LPA"} {
		spec := RunSpec{
			Stream: StreamSpec{Dataset: "Sin", N: 1000, T: 30},
			Method: method, Eps: 1, W: 5, Seed: 21,
		}
		plain, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Audit = true
		audited, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		for ts, rel := range plain.Released {
			for k, v := range rel {
				if math.Float64bits(v) != math.Float64bits(audited.Released[ts][k]) {
					t.Fatalf("%s: the audit moved release t=%d[%d]: %v -> %v", method, ts+1, k, v, audited.Released[ts][k])
				}
			}
		}
		if audited.MaxWindowLoss == 0 || audited.PrivacyViolations != 0 {
			t.Fatalf("%s: audit saw max loss %v and %d violations", method, audited.MaxWindowLoss, audited.PrivacyViolations)
		}
	}
	// Nor may -audit move a plan's content-derived mechanism seed.
	spec := RunSpec{Stream: StreamSpec{Dataset: "Sin"}, Method: "LPA", Eps: 1, W: 20}
	plain, audited := (&Config{Seed: 99}).runSpec(spec), (&Config{Seed: 99, Audit: true}).runSpec(spec)
	if !audited.Audit || plain.Seed != audited.Seed || plain.StreamSeed != audited.StreamSeed {
		t.Fatalf("the audit moved the plan's seeds: %+v vs %+v", plain, audited)
	}
}

func TestExecuteUnknownInputs(t *testing.T) {
	if _, err := Execute(RunSpec{Stream: StreamSpec{Dataset: "zzz"}, Method: "LPA", Eps: 1, W: 5}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Execute(RunSpec{Stream: StreamSpec{Dataset: "Sin", N: 500, T: 5}, Method: "zzz", Eps: 1, W: 5}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Execute(RunSpec{Stream: StreamSpec{Dataset: "Sin", N: 500, T: 5}, Method: "LPA", Eps: 1, W: 5, Oracle: "zzz"}); err == nil {
		t.Fatal("unknown oracle accepted")
	}
}

func TestExecuteAveragedReducesVariance(t *testing.T) {
	spec := RunSpec{
		Stream: StreamSpec{Dataset: "Sin", N: 1000, T: 30},
		Method: "LPU", Eps: 1, W: 10, Seed: 42,
	}
	single, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := ExecuteAveraged(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if avg.MRE <= 0 || single.MRE <= 0 {
		t.Fatal("zero MREs")
	}
	// Averaged outcome must carry the last run's streams.
	if len(avg.Released) != 30 {
		t.Fatalf("averaged outcome missing streams: %d", len(avg.Released))
	}
}

// TestParallelMatchesSerial is the determinism acceptance test: the
// worker-pool executor must produce bit-identical metrics to the serial
// path, both for averaged repetitions and for a whole figure grid.
func TestParallelMatchesSerial(t *testing.T) {
	spec := RunSpec{
		Stream: StreamSpec{Dataset: "Sin", N: 1500, T: 30},
		Method: "LPA", Eps: 1, W: 10, Seed: 11,
	}
	serial, err := ExecuteAveragedWorkers(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExecuteAveragedWorkers(spec, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MRE != parallel.MRE || serial.MAE != parallel.MAE ||
		serial.MSE != parallel.MSE || serial.CFPU != parallel.CFPU ||
		serial.AUC != parallel.AUC || serial.PrivacyViolations != parallel.PrivacyViolations {
		t.Fatalf("parallel averaged outcome differs from serial:\n%+v\nvs\n%+v", parallel, serial)
	}

	grid := func(workers int) []Table {
		c := tinyConfig()
		c.Workers = workers
		c.Datasets = []string{"Sin"}
		c.Methods = []string{"LBU", "LPU", "LPA"}
		tables, err := c.Fig4()
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	a, b := grid(1), grid(4)
	for ti := range a {
		for r := range a[ti].Cells {
			for col := range a[ti].Cells[r] {
				if a[ti].Cells[r][col] != b[ti].Cells[r][col] {
					t.Fatalf("grid cell [%d][%d][%d]: serial %v != parallel %v",
						ti, r, col, a[ti].Cells[r][col], b[ti].Cells[r][col])
				}
			}
		}
	}
}

// TestPrivacyViolationsTotalAcrossReps pins the accumulation contract: the
// EventLevel baseline deliberately overspends every w-window, and the
// averaged outcome must report the TOTAL violation count across reps, not
// a per-rep average.
func TestPrivacyViolationsTotalAcrossReps(t *testing.T) {
	spec := RunSpec{
		Stream: StreamSpec{Dataset: "Sin", N: 300, T: 15},
		Method: "EventLevel", Eps: 1, W: 5, Seed: 8, Audit: true,
	}
	single, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if single.PrivacyViolations == 0 {
		t.Fatal("EventLevel run reported no violations; the audit should flag it")
	}
	const reps = 3
	avg, err := ExecuteAveraged(spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	// EventLevel's exposure pattern (all users, every timestamp, full eps)
	// does not depend on the seed, so every rep yields the same count.
	if avg.PrivacyViolations != reps*single.PrivacyViolations {
		t.Fatalf("averaged violations %d, want total %d across %d reps",
			avg.PrivacyViolations, reps*single.PrivacyViolations, reps)
	}
}

// TestPackedOracleCommBytes bills OUE's packed reports end to end: on
// Taobao, the largest trace domain (d = 117), every report costs
// 8·⌈117/64⌉ + 4 = 20 bytes, and the retired OUE-packed name runs the
// very same experiment.
func TestPackedOracleCommBytes(t *testing.T) {
	run := func(oracle string) *Outcome {
		out, err := Execute(RunSpec{
			Stream: StreamSpec{Dataset: "Taobao", N: 400, T: 10},
			Method: "LBU", Eps: 1, W: 5, Seed: 21, Oracle: oracle,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	oue, alias := run("OUE"), run("OUE-packed")
	if oue.Comm.Reports == 0 || oue.Comm.Bytes != 20*oue.Comm.Reports {
		t.Fatalf("OUE moved %d bytes in %d reports, want 20 per report", oue.Comm.Bytes, oue.Comm.Reports)
	}
	if !reflect.DeepEqual(alias.Comm, oue.Comm) || math.Float64bits(alias.MRE) != math.Float64bits(oue.MRE) {
		t.Fatalf("OUE-packed ran another experiment: %+v, MRE %v; OUE %+v, MRE %v", alias.Comm, alias.MRE, oue.Comm, oue.MRE)
	}
}

func TestExecuteDeterministic(t *testing.T) {
	spec := RunSpec{
		Stream: StreamSpec{Dataset: "LNS", N: 800, T: 25},
		Method: "LPD", Eps: 1, W: 5, Seed: 314,
	}
	a, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.MRE != b.MRE || a.CFPU != b.CFPU {
		t.Fatalf("same-seed runs differ: %v vs %v", a.MRE, b.MRE)
	}
}

func TestFig4ShapeAndOrdering(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"Sin"}
	tables, err := c.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("fig4 produced %d tables", len(tables))
	}
	tbl := tables[0]
	if len(tbl.RowHeads) != 7 || len(tbl.ColHeads) != 5 {
		t.Fatalf("fig4 table shape %dx%d", len(tbl.RowHeads), len(tbl.ColHeads))
	}
	rowOf := func(name string) []float64 {
		for r, h := range tbl.RowHeads {
			if h == name {
				return tbl.Cells[r]
			}
		}
		t.Fatalf("missing row %s", name)
		return nil
	}
	// Headline orderings at eps=1 (col 1): population < budget division.
	lbu, lpu := rowOf("LBU")[1], rowOf("LPU")[1]
	if lpu >= lbu {
		t.Errorf("fig4: LPU MRE %v not below LBU %v", lpu, lbu)
	}
	// Error decreases with eps for the uniform baselines.
	if rowOf("LBU")[4] >= rowOf("LBU")[0] {
		t.Errorf("fig4: LBU MRE not decreasing in eps: %v", rowOf("LBU"))
	}
}

func TestFig5WindowGrowth(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"Sin"}
	c.Methods = []string{"LBU", "LPU"}
	tables, err := c.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// LBU error grows sharply with w (budget eps/w); compare w=10 vs 50.
	if tbl.Cells[0][4] <= tbl.Cells[0][0] {
		t.Errorf("fig5: LBU MRE not increasing in w: %v", tbl.Cells[0])
	}
}

func TestFig6Tables(t *testing.T) {
	c := tinyConfig()
	c.Methods = []string{"LBU", "LPU", "LPA"}
	tables, err := c.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("fig6 produced %d tables, want 4", len(tables))
	}
	// Population sweep: MRE decreases with N for every method.
	for r := range tables[0].RowHeads {
		first, last := tables[0].Cells[r][0], tables[0].Cells[r][3]
		if last >= first {
			t.Errorf("fig6(a) row %s: MRE %v not decreasing in N", tables[0].RowHeads[r], tables[0].Cells[r])
		}
	}
}

func TestFig7AUCRange(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"Sin", "Taxi"}
	tables, err := c.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Cells {
		for _, auc := range row {
			if auc < 0 || auc > 1 {
				t.Fatalf("fig7 AUC %v out of range", auc)
			}
		}
	}
}

func TestTable2CFPUStructure(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"Sin"}
	tables, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("table2 produced %d tables", len(tables))
	}
	tbl := tables[0] // eps=1, w=20
	rowOf := func(name string) float64 {
		for r, h := range tbl.RowHeads {
			if h == name {
				return tbl.Cells[r][0]
			}
		}
		t.Fatalf("missing row %s", name)
		return 0
	}
	// Paper Table 2 structure: LBU = 1; LBD/LBA in (1, 1.5);
	// LSP = LPU = 1/w; LPD/LPA <= 1/w.
	if v := rowOf("LBU"); v != 1 {
		t.Errorf("LBU CFPU %v != 1", v)
	}
	for _, nm := range []string{"LBD", "LBA"} {
		if v := rowOf(nm); v <= 1 || v >= 1.6 {
			t.Errorf("%s CFPU %v outside (1, 1.6)", nm, v)
		}
	}
	w := 20.0
	for _, nm := range []string{"LSP", "LPU"} {
		if v := rowOf(nm); v < 0.9/w || v > 1.1/w {
			t.Errorf("%s CFPU %v != 1/w", nm, v)
		}
	}
	for _, nm := range []string{"LPD", "LPA"} {
		if v := rowOf(nm); v > 1.05/w {
			t.Errorf("%s CFPU %v exceeds 1/w", nm, v)
		}
	}
}

func TestFig8Tables(t *testing.T) {
	c := tinyConfig()
	c.Methods = []string{"LBU", "LSP", "LPA"}
	tables, err := c.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("fig8 produced %d tables", len(tables))
	}
}

func TestAblations(t *testing.T) {
	c := tinyConfig()
	c.Datasets = []string{"Sin"}
	for name, run := range map[string]func() ([]Table, error){
		"fo":    c.AblationFO,
		"olh":   c.AblationOLHFold,
		"umin":  c.AblationUMin,
		"split": c.AblationSplit,
	} {
		tables, err := run()
		if err != nil {
			t.Fatalf("ablation %s: %v", name, err)
		}
		if len(tables) == 0 {
			t.Fatalf("ablation %s produced no tables", name)
		}
	}
}

func TestExperimentsRegistry(t *testing.T) {
	c := tinyConfig()
	exps := c.Experiments()
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "table2", "ablation-fo", "ablation-olh", "ablation-umin", "ablation-split"} {
		if exps[id] == nil {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:    "demo",
		XLabel:   "eps",
		ColHeads: []string{"0.5", "1.0"},
		RowHeads: []string{"LBU", "LPA"},
		Cells:    [][]float64{{0.5, 0.25}, {0.05, 0.02}},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "LBU", "LPA", "0.5000", "0.0200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	var buf2 bytes.Buffer
	RenderAll(&buf2, []Table{tbl, tbl})
	if strings.Count(buf2.String(), "demo") != 2 {
		t.Fatal("RenderAll did not render both tables")
	}
}

func TestIsBinary(t *testing.T) {
	for _, ds := range []string{"LNS", "Sin", "Log"} {
		if !IsBinary(ds) {
			t.Errorf("%s should be binary", ds)
		}
	}
	for _, ds := range []string{"Taxi", "Foursquare", "Taobao"} {
		if IsBinary(ds) {
			t.Errorf("%s should not be binary", ds)
		}
	}
}

func TestCompareCDP(t *testing.T) {
	c := tinyConfig()
	tables, err := c.CompareCDP()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	rowOf := func(name string) []float64 {
		for r, h := range tbl.RowHeads {
			if h == name {
				return tbl.Cells[r]
			}
		}
		t.Fatalf("missing row %s", name)
		return nil
	}
	// CDP uniform must beat LDP uniform by a wide margin at every eps.
	for col := range tbl.ColHeads {
		if rowOf("CDP-Uniform")[col]*5 > rowOf("LBU")[col] {
			t.Errorf("col %d: CDP-Uniform MAE %v not far below LBU %v",
				col, rowOf("CDP-Uniform")[col], rowOf("LBU")[col])
		}
	}
}

func TestAblationFilter(t *testing.T) {
	c := tinyConfig()
	tables, err := c.AblationFilter()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	// Kalman filtering must not hurt on these smooth streams.
	for col := range tbl.ColHeads {
		if tbl.Cells[1][col] >= tbl.Cells[0][col] {
			t.Errorf("col %d: LPU+Kalman MSE %v not below raw %v",
				col, tbl.Cells[1][col], tbl.Cells[0][col])
		}
		if tbl.Cells[4][col] >= tbl.Cells[3][col] {
			t.Errorf("col %d: LBU+Kalman MSE %v not below raw %v",
				col, tbl.Cells[4][col], tbl.Cells[3][col])
		}
	}
}

func TestCompareGranularity(t *testing.T) {
	c := tinyConfig()
	tables, err := c.CompareGranularity()
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	rowOf := func(name string) []float64 {
		for r, h := range tbl.RowHeads {
			if h == name {
				return tbl.Cells[r]
			}
		}
		t.Fatalf("missing row %s", name)
		return nil
	}
	// Utility ordering: EventLevel < LPA < LBU < UserLevel by MRE.
	if !(rowOf("EventLevel")[0] < rowOf("LPA (w-event)")[0]) {
		t.Errorf("event-level MRE %v not below LPA %v", rowOf("EventLevel")[0], rowOf("LPA (w-event)")[0])
	}
	if !(rowOf("LBU (w-event)")[0] < rowOf("UserLevel(T)")[0]) {
		t.Errorf("LBU MRE %v not below user-level %v", rowOf("LBU (w-event)")[0], rowOf("UserLevel(T)")[0])
	}
	// Privacy ordering: event-level window loss = w*eps; w-event <= eps.
	if rowOf("EventLevel")[1] < 19 {
		t.Errorf("event-level window loss %v, want ~20", rowOf("EventLevel")[1])
	}
	for _, nm := range []string{"LBU (w-event)", "LPA (w-event)", "UserLevel(T)"} {
		if rowOf(nm)[1] > 1+1e-9 {
			t.Errorf("%s window loss %v exceeds eps", nm, rowOf(nm)[1])
		}
	}
}
