// Package experiment is the reproduction harness: it builds the paper's
// six evaluation datasets (three synthetic, three simulated real-world),
// runs any mechanism against them, computes the paper's metrics, and
// renders the rows/series of every figure and table in §7, plus the
// ablations beyond the paper (frequency-oracle swaps including
// cohort-hashed OLH-C, the OLH vs OLH-C server-fold cost grid, u_min
// floors, resource splits, filters, and centralized-DP / granularity
// comparisons).
//
// Every experiment is declarative: a pure plan builder returns a Plan — a
// list of Cells, each carrying the full RunSpec that determines its value,
// a repetition count, a metric selector, and (table, row, col)
// coordinates — and a single Scheduler executes any set of plans over the
// deterministic worker pool. Cell seeds derive from run content (never
// from grid position), so the same logical cell appearing in several
// figures is the same spec; the scheduler groups cells by canonical
// content hash and executes each distinct run once. With a
// runlog.Journal attached, completed runs append to a crash-safe JSONL
// log and are skipped on resume, making an interrupted `-exp all`
// restartable with bit-identical output. Config.Experiments/Plans map
// experiment ids to runners/builders — cmd/ldpids-bench is a thin CLI
// over them.
//
// RunSpec describes one mechanism-on-dataset execution and Execute runs
// it (including the granularity baselines EventLevel/UserLevel and the
// centralized CDP-* baselines); ExecuteAveraged / ExecuteAveragedWorkers
// average repetitions.
//
// Everything is deterministic by construction: every grid cell and
// repetition derives its seeds from the spec alone, workers write disjoint
// result slots, and reductions happen in item order, so parallel runs
// (Config.Workers) are bit-identical to serial ones — and journal round
// trips are bit-exact, so resumed runs are too.
package experiment
