// Command bench is the repository's performance ledger: it assembles the
// real single gateway and the real coordinator + 2 replicas in-process from
// the public constructors cmd/ldpids-gateway wires, drives four named
// workloads over loopback HTTP with serve.Client devices, and prints every
// end-to-end metric (untraced) or per-layer metric (-trace 1) by name and
// unit. Timing metrics come from the quietest of a run's one-second slices
// (README.md says why). Every run's release stream is verified bit for bit
// against a single-goroutine collect.Sim reference. BENCHMARK.json at the
// repository root declares the command, the workloads and the metrics;
// README.md says how to read them.
//
// Usage, from the repository root:
//
//	go run -C bench . [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	go run -C bench . -repeat 2
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without -workload every workload
// runs and the object nests one such result per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// perLayer are the single-layer numbers of the traced pass: for each of
// the repository's modules, work done as a count, time busy, and time
// spent waiting. README.md maps each to the end-to-end metric it should
// move and on which workload.
var perLayer = []metric{
	{name: "device.perturb_s", unit: "s", better: "lower"},
	{name: "device.reports", unit: "count", better: "higher"},
	{name: "client.answer_s", unit: "s", better: "lower"},
	{name: "client.encode_s", unit: "s", better: "lower"},
	{name: "client.posts", unit: "count", better: "lower"},
	{name: "http.post_rtt_s", unit: "s", better: "lower"},
	{name: "http.post_overhead_s", unit: "s", better: "lower"},
	{name: "http.announce_lag_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.report_handler_s", unit: "s", better: "lower"},
	{name: "serve.report_posts", unit: "count", better: "lower"},
	{name: "serve.report_body_bytes", unit: "B", better: "lower"},
	{name: "serve.stage_decode_s", unit: "s", better: "lower"},
	{name: "serve.stage_fold_s", unit: "s", better: "lower"},
	{name: "serve.stage_journal_s", unit: "s", better: "lower"},
	{name: "serve.report_handler_other_s", unit: "s", better: "lower"},
	{name: "serve.publish_s", unit: "s", better: "lower"},
	{name: "serve.query_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.query_late_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.metrics_scrape_ms", unit: "ms", better: "lower"},
	{name: "collect.rounds", unit: "count", better: "higher"},
	{name: "collect.round_s", unit: "s", better: "lower"},
	{name: "collect.round_ms_p50", unit: "ms", better: "lower"},
	{name: "collect.round_ms_p90", unit: "ms", better: "lower"},
	{name: "collect.round_idle_s", unit: "s", better: "lower"},
	{name: "collect.sim_reports_per_s", unit: "1/s", better: "higher"},
	{name: "collect.sim_timestamp_ms_p50", unit: "ms", better: "lower"},
	{name: "fo.estimate_s", unit: "s", better: "lower"},
	{name: "fo.estimates", unit: "count", better: "higher"},
	{name: "fo.perturb_ns", unit: "ns", better: "lower"},
	{name: "fo.fold_ns", unit: "ns", better: "lower"},
	{name: "fo.estimate_ms", unit: "ms", better: "lower"},
	{name: "fo.export_merge_ms", unit: "ms", better: "lower"},
	{name: "mechanism.step_s", unit: "s", better: "lower"},
	{name: "mechanism.self_s", unit: "s", better: "lower"},
	{name: "mechanism.publications", unit: "count", better: "higher"},
	{name: "cluster.counters_handler_s", unit: "s", better: "lower"},
	{name: "cluster.frames", unit: "count", better: "lower"},
	{name: "cluster.frame_bytes", unit: "B", better: "lower"},
	{name: "cluster.stage_merge_s", unit: "s", better: "lower"},
	{name: "cluster.stage_ship_s", unit: "s", better: "lower"},
	{name: "cluster.ingest_window_s", unit: "s", better: "lower"},
	{name: "cluster.overhead_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.degraded_rounds", unit: "count", better: "lower"},
	{name: "history.records", unit: "count", better: "higher"},
	{name: "history.journal_bytes", unit: "B", better: "lower"},
	{name: "history.read_s", unit: "s", better: "lower"},
	{name: "history.check_s", unit: "s", better: "lower"},
	{name: "history.check_reports_per_s", unit: "1/s", better: "higher"},
	{name: "history.violations", unit: "count", better: "lower"},
	{name: "history.append_us", unit: "us", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "ledger.cpu_unattributed_share", unit: "ratio", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
}

// measured is one metric value in the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object the driver reads from the last line.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// line renders a result as the driver's object: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (r *result) line(decls []metric) resultLine {
	l := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]measured, len(decls))}
	for _, m := range decls {
		l.Metrics[m.name] = measured{Value: r.values[m.name], Unit: m.unit}
	}
	return l
}

// hardware describes the box, printed with every run: numbers from
// different boxes never compare.
func hardware() string {
	model := "unknown CPU"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(l, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q %s GOMAXPROCS=%d", runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0))
}

// print writes one result as a table of name, value and unit.
func (r *result) print(decls []metric) {
	scale := ""
	if r.short {
		scale = " (short scale: never compare)"
	}
	fmt.Printf("\n%s%s: timing from the %d quietest of %d slices (%d timestamps), %d operations, %d failed, digest %x\n",
		r.workload, scale, r.kept, r.slices, r.samples, r.attempted, r.failed, r.digest[:8])
	for _, m := range decls {
		fmt.Printf("  %-32s %16.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, p := range r.problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all): "+workloadNames())
		seed     = flag.Uint64("seed", 1, "derives the mechanism seed and the device seed")
		secs     = flag.Float64("seconds", 18, "live time measured, in one-second slices; BENCHMARK.json's run_seconds")
		trace    = flag.Int("trace", 0, "1 splits the seconds between an untraced and a traced pass and prints the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the traced pass as Chrome trace-event JSON to this file")
		repeat   = flag.Int("repeat", 1, "run the untraced set this many times and fail if two sets disagree beyond a metric's bound")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace == 1, *traceOut, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return strings.Join(names, " ")
}

// run executes the selected workloads and prints the result line last. It
// returns an error — a non-zero exit — when any run is incorrect.
func run(workload string, seed uint64, secs float64, trace bool, traceOut string, repeat int) error {
	specs := workloads
	if workload != "" {
		s, err := findWorkload(workload)
		if err != nil {
			return err
		}
		specs = []spec{s}
	}
	opt := options{seed: seed, duration: time.Duration(secs * float64(time.Second)),
		minT: minMeasured, trace: trace, traceOut: traceOut}
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	fmt.Println(hardware())
	fmt.Println("closed loop, 2 clients, timestamps back to back: reports_per_s is the maximum sustainable rate; cpu_s_per_mreport includes the in-process clients")
	if repeat > 1 {
		return runRepeat(specs, opt, repeat)
	}
	lines := map[string]resultLine{}
	incorrect := 0
	for _, s := range specs {
		res, err := runWorkload(s, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		res.print(decls)
		if !res.correct() {
			incorrect++
		}
		lines[s.name] = res.line(decls)
	}
	// One workload prints the driver's object; all of them, one per name.
	var last any = lines
	if workload != "" {
		last = lines[workload]
	}
	out, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) incorrect", incorrect)
	}
	return nil
}

// runRepeat is the self-agreement gate: it runs the untraced set repeat
// times on one seed, prints each metric's median and spread, and fails
// when two sets differ by more than the metric's own bound — a benchmark
// that cannot repeat itself cannot judge a change.
func runRepeat(specs []spec, opt options, repeat int) error {
	opt.trace = false
	disagreements := 0
	for _, s := range specs {
		sets := make([]*result, repeat)
		for i := range sets {
			res, err := runWorkload(s, opt)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			if !res.correct() {
				res.print(endToEnd)
				return fmt.Errorf("%s: incorrect", s.name)
			}
			sets[i] = res
		}
		fmt.Printf("\n%s: %d sets\n", s.name, repeat)
		for _, m := range endToEnd {
			values := make([]float64, repeat)
			for i, res := range sets {
				values[i] = res.values[m.name]
			}
			lo, med, hi := percentile(values, 0), percentile(values, 0.5), percentile(values, 1)
			spread := (hi - lo) / med
			verdict := "ok"
			if spread > m.bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("  %-24s median %14.6g %-12s spread %6.2f%% bound %5.1f%% %s\n",
				m.name, med, m.unit, 100*spread, 100*m.bound, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d metric(s) differ between sets by more than their bound", disagreements)
	}
	return nil
}
