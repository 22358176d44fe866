package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"ldpids/internal/filter"
	"ldpids/internal/fo"
	"ldpids/internal/metrics"
)

// Every figure, table, ablation, and comparison is a pure function
// returning a Plan: a declarative list of Cells, each carrying the full
// RunSpec that determines its value, a repetition count, a metric
// selector, and its (table, row, col) coordinates. A single Scheduler
// (scheduler.go) executes any set of plans: cells sharing a run execute
// once, completed runs are journaled by content hash (internal/runlog),
// and journaled runs are skipped on resume.

// Cell is one table slot of a plan: the seeded run that produces it plus
// the metric extracted from that run.
type Cell struct {
	// Table, Row, Col locate the cell in the plan's Tables.
	Table, Row, Col int
	// Metric names the value extracted from the run's outcome: "MRE",
	// "MAE", "MSE", "CFPU", "AUC", "PrivacyViolations", "MaxWindowLoss",
	// "KalmanMSE" or "EWMA03MSE".
	Metric string
	// Spec fully determines the run (canonicalized by Config.runSpec:
	// seeds derive from the run's content, so identical logical cells in
	// different grids share a spec and therefore a journal hash).
	Spec RunSpec
	// Reps is the number of averaged repetitions.
	Reps int
	// FailOnViolation makes the scheduler fail the plan if the run's
	// w-event audit recorded any violation (the paper-figure sweeps set
	// it; granularity baselines deliberately violate and do not).
	FailOnViolation bool
}

// Plan declares one experiment: table skeletons (headers without cell
// values) plus the cells that fill them. Experiments whose values are
// wall-clock measurements rather than seeded runs (the OLH fold-cost
// ablation) set Direct instead of Cells; the scheduler runs them without
// journaling, since timings are not content-addressable.
type Plan struct {
	// ID is the experiment id (the -exp name).
	ID string
	// Tables holds the skeletons to fill: Title, XLabel, RowHeads and
	// ColHeads set, Cells nil.
	Tables []Table
	// Cells lists every slot to compute.
	Cells []Cell
	// Direct, when non-nil, computes the tables imperatively.
	Direct func() ([]Table, error)
}

// addTable appends a skeleton and returns its index.
func (p *Plan) addTable(t Table) int {
	p.Tables = append(p.Tables, t)
	return len(p.Tables) - 1
}

// runDataVersion is the module data version folded into every run hash.
// Bump it whenever dataset generation, mechanism behavior, or metric
// definitions change in a way that invalidates journaled values.
const runDataVersion = 3

// fstr renders a float in canonical shortest round-trippable form.
func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// streamKey is the canonical content key of a dataset specification.
func streamKey(sp StreamSpec) string {
	return strings.Join([]string{
		"ds=" + sp.Dataset,
		"n=" + strconv.Itoa(sp.N),
		"t=" + strconv.Itoa(sp.T),
		"scale=" + fstr(sp.PopScale),
		"lnsstd=" + fstr(sp.LNSStd),
		"sinb=" + fstr(sp.SinB),
	}, "|")
}

// processKey is the content key of the dataset's underlying stochastic
// process, EXCLUDING population and horizon: the stream seed derives from
// it, so population sweeps (Fig 6a/b, Fig 8a) vary n over the same
// process trajectory and their columns stay comparable, exactly as when a
// human fixes the scenario and grows the crowd.
func processKey(sp StreamSpec) string {
	return strings.Join([]string{
		"ds=" + sp.Dataset,
		"lnsstd=" + fstr(sp.LNSStd),
		"sinb=" + fstr(sp.SinB),
	}, "|")
}

// specContentKey is the canonical content key of a run minus its seeds:
// everything that determines the run's value besides randomness. Sentinel
// zero values are normalized to the defaults they select (Oracle "" is
// GRR, UMin 0 is 1, DisFraction 0 is the paper's 1/2), so a spec spelling
// the default explicitly dedupes against one leaving it zero.
func specContentKey(spec RunSpec) string {
	oracle := spec.Oracle
	if oracle == "" {
		oracle = "GRR"
	}
	umin := spec.UMin
	if umin == 0 {
		umin = 1
	}
	frac := spec.DisFraction
	if frac == 0 {
		frac = 0.5
	}
	return strings.Join([]string{
		streamKey(spec.Stream),
		"m=" + spec.Method,
		"eps=" + fstr(spec.Eps),
		"w=" + strconv.Itoa(spec.W),
		"oracle=" + oracle,
		"audit=" + strconv.FormatBool(spec.Audit),
		"umin=" + strconv.Itoa(umin),
		"frac=" + fstr(frac),
	}, "|")
}

// runKey is the full canonical content key of a run: the module data
// version, every value-determining spec field including the seeds, and the
// repetition count. It is the journal hash preimage, stored alongside the
// hash so journals stay auditable.
func runKey(spec RunSpec, reps int) string {
	if reps < 1 {
		reps = 1
	}
	return strings.Join([]string{
		"v" + strconv.Itoa(runDataVersion),
		specContentKey(spec),
		"seed=" + strconv.FormatUint(spec.Seed, 10),
		"sseed=" + strconv.FormatUint(spec.StreamSeed, 10),
		"reps=" + strconv.Itoa(reps),
	}, "|")
}

// runHash content-addresses a run for the journal.
func runHash(spec RunSpec, reps int) string {
	sum := sha256.Sum256([]byte(runKey(spec, reps)))
	return hex.EncodeToString(sum[:])
}

// contentSeed derives a replayable 64-bit seed from the root seed and a
// canonical content string (never from grid position), so the same logical
// cell appearing in different figures draws identical randomness.
func contentSeed(root uint64, parts ...string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(root >> (8 * i))
	}
	h.Write(b[:])
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	s := h.Sum64()
	if s == 0 {
		s = 1 // 0 is the "unset" sentinel for StreamSeed
	}
	return s
}

// runSpec canonicalizes a cell's spec: it fills the config-level oracle
// and audit flag, then derives the mechanism seed and the stream seed from
// the run's content plus the root seed. Content-derived seeds are what
// make cross-figure deduplication real — the (ε=1, w=20) column of Fig 4
// and Table 2's first combo become the SAME RunSpec — and they give every
// method in a sweep the same stream realization by construction.
func (c *Config) runSpec(spec RunSpec) RunSpec {
	if spec.Oracle == "" {
		spec.Oracle = c.Oracle
	}
	if c.Audit {
		spec.Audit = true
	}
	spec.StreamSeed = contentSeed(c.Seed, "stream", processKey(spec.Stream))
	// The audit only observes, so it must not move the mechanism seed
	// either: an audited run releases what the unaudited one does.
	unaudited := spec
	unaudited.Audit = false
	spec.Seed = contentSeed(c.Seed, "run", specContentKey(unaudited))
	return spec
}

// Metric selectors. Base metrics are scalar summaries present in every
// journaled record; derived metrics post-process the released streams
// (which are not journaled), so they are computed at execution time and
// journaled only when a cell requests them.
const (
	MetricMRE           = "MRE"
	MetricMAE           = "MAE"
	MetricMSE           = "MSE"
	MetricCFPU          = "CFPU"
	MetricAUC           = "AUC"
	MetricViolations    = "PrivacyViolations"
	MetricMaxWindowLoss = "MaxWindowLoss"
	MetricKalmanMSE     = "KalmanMSE"
	MetricEWMA03MSE     = "EWMA03MSE"
)

// baseMetricNames lists the metrics recorded for every executed run.
var baseMetricNames = []string{
	MetricMRE, MetricMAE, MetricMSE, MetricCFPU, MetricAUC,
	MetricViolations, MetricMaxWindowLoss,
}

// metricFns maps metric selectors to their extraction from an averaged
// outcome.
var metricFns = map[string]func(*Outcome) float64{
	MetricMRE:           func(o *Outcome) float64 { return o.MRE },
	MetricMAE:           func(o *Outcome) float64 { return o.MAE },
	MetricMSE:           func(o *Outcome) float64 { return o.MSE },
	MetricCFPU:          func(o *Outcome) float64 { return o.CFPU },
	MetricAUC:           func(o *Outcome) float64 { return o.AUC },
	MetricViolations:    func(o *Outcome) float64 { return float64(o.PrivacyViolations) },
	MetricMaxWindowLoss: func(o *Outcome) float64 { return o.MaxWindowLoss },
	MetricKalmanMSE:     kalmanMSE,
	MetricEWMA03MSE:     ewma03MSE,
}

// kalmanMSE is the MSE of the run's releases after Kalman filtering with
// the oracle's closed-form per-release measurement variance: LPU-style
// reports carry the full ε from N/w users per timestamp; LBU-style reports
// carry ε/w from all N users (see AblationFilter).
func kalmanMSE(o *Outcome) float64 {
	oracle := fo.NewGRR(2)
	var mv float64
	if o.Spec.Method == "LPU" {
		mv = oracle.VarianceApprox(o.Spec.Eps, o.N/o.Spec.W)
	} else {
		mv = oracle.VarianceApprox(o.Spec.Eps/float64(o.Spec.W), o.N)
	}
	measVar := make([]float64, o.T)
	for i := range measVar {
		measVar[i] = mv
	}
	return metrics.MSE(filter.KalmanStream(o.Released, measVar, 1e-5), o.True)
}

// ewma03MSE is the MSE of the run's releases after EWMA(0.3) smoothing.
func ewma03MSE(o *Outcome) float64 {
	return metrics.MSE(filter.EWMAStream(o.Released, 0.3), o.True)
}

// extractMetrics evaluates the base metric set plus any extra requested
// selectors on an executed outcome.
func extractMetrics(o *Outcome, extra []string) (map[string]float64, error) {
	rec := make(map[string]float64, len(baseMetricNames)+len(extra))
	for _, name := range baseMetricNames {
		rec[name] = metricFns[name](o)
	}
	for _, name := range extra {
		if _, ok := rec[name]; ok {
			continue
		}
		fn, ok := metricFns[name]
		if !ok {
			return nil, fmt.Errorf("experiment: unknown metric selector %q", name)
		}
		rec[name] = fn(o)
	}
	return rec, nil
}

// Plans maps experiment ids to their plan builders. Builders are pure:
// they construct the declarative cell list without executing anything.
func (c *Config) Plans() map[string]func() Plan {
	return map[string]func() Plan{
		"fig4":                c.planFig4,
		"fig5":                c.planFig5,
		"fig6":                c.planFig6,
		"fig7":                c.planFig7,
		"fig8":                c.planFig8,
		"table2":              c.planTable2,
		"ablation-fo":         c.planAblationFO,
		"ablation-olh":        c.planAblationOLH,
		"ablation-umin":       c.planAblationUMin,
		"ablation-split":      c.planAblationSplit,
		"ablation-filter":     c.planAblationFilter,
		"compare-cdp":         c.planCompareCDP,
		"compare-granularity": c.planCompareGranularity,
	}
}

// PlanIDs returns every experiment id in sorted order.
func (c *Config) PlanIDs() []string {
	ids := make([]string, 0, len(c.Plans()))
	for id := range c.Plans() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Experiments maps experiment ids to runners executing the corresponding
// plan on a fresh (journal-less) scheduler. cmd/ldpids-bench builds plans
// itself so it can share one scheduler — and therefore one run cache —
// across experiments.
func (c *Config) Experiments() map[string]func() ([]Table, error) {
	out := make(map[string]func() ([]Table, error))
	for id, build := range c.Plans() {
		build := build
		out[id] = func() ([]Table, error) { return c.runPlan(build()) }
	}
	return out
}

// runPlan executes a single plan on a fresh scheduler without a journal.
func (c *Config) runPlan(p Plan) ([]Table, error) {
	return c.NewScheduler(nil).Run(p)
}
