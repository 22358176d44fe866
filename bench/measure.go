package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// metric declares one reported number. BENCHMARK.json repeats these
// declarations; bench_test.go fails when the two drift apart.
type metric struct {
	name, unit, better string
	bound              float64 // share of the parent's median a change may lose
}

// endToEnd are the numbers a user of the service sees, measured with
// tracing off. The four timing metrics and setup_s carry the widest bound
// the benchmark's contract allows, because the shared reference box has
// busy phases that outlast a run; see README.md.
var endToEnd = []metric{
	{"reports_per_s", "1/s", "higher", 0.25},
	{"timestamp_ms_p50", "ms", "lower", 0.25},
	{"timestamp_ms_p90", "ms", "lower", 0.25},
	{"cpu_s_per_mreport", "s", "lower", 0.25},
	{"alloc_bytes_per_report", "B", "lower", 0.06},
	{"wire_bytes_per_report", "B", "lower", 0.01},
	{"cfpu", "reports/user", "lower", 0.05},
	{"mre", "ratio", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// options selects what one workload run does.
type options struct {
	seed     uint64
	duration time.Duration // live time to measure, once minT timestamps released
	minT     int
	trace    bool   // also run the traced pass and derive the per-layer ledger
	traceOut string // Chrome trace-event JSON of the traced pass
	short    bool   // smoke scale: one setup, output never compared
}

// A run assembles the deployment setupRepeats times before its pass and as
// often again after it, and after that up to maxSetupRepeats times while
// all of them together took less than setupBudget. setup_s is the quietest
// fifth of those assemblies, as the timing metrics are the quietest fifth
// of the slices: one assembly is dominated by allocator, page-fault and
// host noise, and two groups half a minute apart rarely share a slow phase.
const (
	setupRepeats    = 3
	maxSetupRepeats = 24
	setupBudget     = time.Second
)

// result is one workload run's verdict and numbers.
type result struct {
	workload  string
	short     bool
	samples   int   // timestamps of the quiet slices, behind the latency percentiles
	slices    int   // slices measured
	kept      int   // quiet slices the timing metrics are taken from
	reports   int64 // reports accepted in the measured phase
	attempted int64
	failed    int64
	problems  []string // why the run is incorrect; empty when correct
	values    map[string]float64
	digest    digest
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runPass assembles the workload, drives one pass and tears it down.
func runPass(s spec, opt options, tr *tracer, tmp string, ref *reference, res *result) (*pass, []float64, error) {
	repeats, budget := setupRepeats, setupBudget
	if opt.short || opt.trace {
		repeats, budget = 1, 0
	}
	var (
		setupS []float64
		spent  time.Duration
	)
	assemble := func() (*rig, error) {
		start := time.Now()
		rg, err := setup(s, opt.seed, tr, tmp)
		took := time.Since(start)
		setupS = append(setupS, took.Seconds())
		spent += took
		return rg, err
	}
	var rg *rig
	for i := 0; i < repeats; i++ {
		if rg != nil {
			if err := rg.close(); err != nil {
				return nil, nil, err
			}
		}
		var err error
		if rg, err = assemble(); err != nil {
			return nil, nil, err
		}
	}
	duration := opt.duration
	if opt.trace {
		// The traced set measures two passes; they share the run's seconds.
		duration /= 2
	}
	p, err := rg.run(opt.minT, duration, ref)
	for _, lf := range rg.loopFailures() {
		res.failed++
		res.problem("background loop: %v", lf)
	}
	if cerr := rg.close(); cerr != nil {
		res.failed++
		res.problem("ingest journal: %v", cerr)
	}
	if err != nil {
		return nil, nil, err
	}
	res.count(p)
	for i := 0; repeats > 1 && (i < repeats || spent < budget && len(setupS) < maxSetupRepeats); i++ {
		again, err := assemble()
		if err != nil {
			return nil, nil, err
		}
		if err := again.close(); err != nil {
			return nil, nil, err
		}
	}
	return p, setupS, nil
}

// count adds a pass's operations to the run's attempted and failed totals,
// from the end-of-run scrape and the poller.
func (r *result) count(p *pass) {
	refused := p.after.sum("ldpids_gateway_refusals_total") + p.after.sum("ldpids_cluster_frames_refused_total")
	failed := p.after.sum("ldpids_gateway_round_failures_total") + p.after.sum("ldpids_cluster_rounds_degraded_total") + refused
	attempted := p.after.sum("ldpids_gateway_rounds_total") + p.after.sum("ldpids_gateway_batch_reports_count") +
		p.after.sum("ldpids_cluster_frames_merged_total") + refused
	for _, q := range p.queries {
		attempted++
		if !q.ok {
			failed++
		}
	}
	r.attempted += int64(attempted)
	r.failed += int64(failed)
	if failed > 0 {
		r.problem("%d of %d operations failed (rounds failed or degraded, batches or frames refused, queries unanswered)",
			int64(failed), int64(attempted))
	}
}

// verify checks a pass's release stream, bit for bit, and its per-timestamp
// report counts against the reference.
func (r *result) verify(what string, p *pass, ref *reference) {
	T := len(p.chain.links)
	if p.chain.links[T-1] != ref.chain.links[T-1] {
		r.problem("%s release stream differs from the collect.Sim reference over %d timestamps", what, T)
	}
	want := ref.reportsPer()
	for t, k := range p.reportsPer {
		if k != want[t] {
			r.problem("%s accepted %d reports at t=%d, reference %d", what, k, t+1, want[t])
			break
		}
	}
}

// endToEndValues derives the end-to-end metrics of an untraced pass. The
// four timing metrics describe the pass's quietest slices; the counts
// cover the whole measured phase.
func endToEndValues(out map[string]float64, s spec, p *pass, pool slice, ref *reference, setupS []float64) {
	out["reports_per_s"] = float64(pool.reports) / pool.wall.Seconds()
	out["timestamp_ms_p50"] = percentile(pool.latencyMs, 0.5)
	out["timestamp_ms_p90"] = percentile(pool.latencyMs, 0.9)
	// Process CPU, so the in-process clients and the harness are in it.
	out["cpu_s_per_mreport"] = pool.cpuS / float64(pool.reports) * 1e6
	reports := float64(measuredReports(p.reportsPer))
	out["alloc_bytes_per_report"] = float64(p.allocBytes) / reports
	wire := func(sc scrape) float64 {
		return sc.sum("ldpids_gateway_bytes_in_total") + sc.sum("ldpids_cluster_frame_bytes_total")
	}
	out["wire_bytes_per_report"] = (wire(p.after) - wire(p.before)) / reports
	out["cfpu"] = reports / (float64(s.n) * float64(p.measured))
	out["mre"] = mean(ref.mre[:p.measured])
	out["setup_s"] = percentile(setupS, quietShare)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runWorkload measures one workload: the untraced pass gives the
// end-to-end metrics; with opt.trace a second, traced pass of the same
// workload gives the per-layer ledger. Both are verified against one
// reference run.
func runWorkload(s spec, opt options) (*result, error) {
	res := &result{workload: s.name, short: opt.short, values: map[string]float64{}}
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	ref, err := newReference(s, opt.seed)
	if err != nil {
		return nil, err
	}
	p, setupS, err := runPass(s, opt, nil, tmp, ref, res)
	if err != nil {
		return nil, err
	}
	pool, kept := quiet(p.slices, opt.minT)
	res.samples, res.slices, res.kept = len(pool.latencyMs), len(p.slices), kept
	res.reports = measuredReports(p.reportsPer)

	var (
		tp *pass
		tr *tracer
	)
	if opt.trace {
		tr = newTracer()
		restore := tr.install()
		tp, _, err = runPass(s, opt, tr, tmp, ref, res)
		restore()
		if err != nil {
			return nil, err
		}
	}

	res.verify("untraced", p, ref)
	res.digest = p.chain.links[len(p.chain.links)-1]
	endToEndValues(res.values, s, p, pool, ref, setupS)
	if !opt.trace {
		return res, nil
	}

	res.verify("traced", tp, ref)
	out := res.values
	ledger(out, tp, tr)
	out["mechanism.publications"] = float64(tp.publications)
	out["collect.sim_reports_per_s"] = float64(measuredReports(ref.reportsPer())) / ref.wall.Seconds()
	out["collect.sim_timestamp_ms_p50"] = percentile(ref.stepMs, 0.5)
	tpool, _ := quiet(tp.slices, opt.minT)
	traced := float64(tpool.reports) / tpool.wall.Seconds()
	out["obs.trace_overhead_share"] = 1 - traced/out["reports_per_s"]
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		out["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	if err := unitCosts(out, s); err != nil {
		return nil, err
	}
	journal := ""
	if s.history {
		journal = filepath.Join(tmp, journalName)
	}
	violations, err := journalAudit(out, journal)
	if err != nil {
		return nil, err
	}
	for _, v := range violations {
		res.problem("history: %s", v)
	}
	if opt.traceOut != "" {
		if err := writeChrome(opt.traceOut, tr.epoch, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	return res, nil
}
