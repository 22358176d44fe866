// Command ldpids-bench regenerates the paper's evaluation: every figure
// and table of §7 plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	ldpids-bench -exp fig4                 # one experiment
//	ldpids-bench -exp all -scale 0.1       # the full evaluation, scaled
//	ldpids-bench -exp all -journal runs    # journal cells as they complete
//	ldpids-bench -exp all -journal runs -resume   # resume after interruption
//
// Populations default to 10% of the paper's sizes (-scale 0.1) so the full
// suite completes in minutes; shapes and orderings are population-invariant
// (Fig. 6 sweeps N explicitly). Pass -audit to run the w-event privacy
// accountant alongside every run.
//
// Every experiment is a declarative plan of content-hashed cells executed
// by one scheduler, so cells shared between figures run once per
// invocation. With -journal DIR, completed cells append to the
// crash-safe journal DIR/runlog.jsonl; re-running with -resume skips every
// journaled cell and produces bit-identical tables to an uninterrupted
// run. Live progress (cells done/total, cache hits, ETA) goes to stderr,
// as do the per-experiment banners and timing lines — stdout carries only
// the tables, so `ldpids-bench -format json > out.json` always parses.
//
// The -oracle flag accepts every name registered in the fo oracle
// registry (the usage text is derived from it, so it can never go stale),
// including cohort-hashed OLH-C (O(1) server folds); OUE and SUE report
// bit-packed vectors, d/8 bytes, and OUE-packed/SUE-packed are accepted
// as their aliases. ablation-fo compares the oracles side by side, and
// ablation-olh times the OLH vs OLH-C server fold across domain sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ldpids/internal/experiment"
	"ldpids/internal/fo"
	"ldpids/internal/runlog"
)

// experimentIDs returns the sorted ids of every registered experiment, so
// the -exp usage text and the -exp all expansion always match the
// registry.
func experimentIDs() []string {
	return (&experiment.Config{}).PlanIDs()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id: "+strings.Join(experimentIDs(), " ")+", or 'all'")
		scale    = flag.Float64("scale", 0.1, "population scale relative to the paper's sizes")
		reps     = flag.Int("reps", 1, "repetitions averaged per cell")
		seed     = flag.Uint64("seed", 1, "root random seed")
		oracle   = flag.String("oracle", "GRR", "frequency oracle: "+strings.Join(fo.Names(), " "))
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = one per CPU, 1 = serial; results are identical)")
		methods  = flag.String("methods", "", "comma-separated method subset (default all)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (default all)")
		audit    = flag.Bool("audit", false, "run the w-event privacy accountant on every run")
		format   = flag.String("format", "text", "output format: text csv json")
		journal  = flag.String("journal", "", "directory for the append-only run journal (cells persist as they complete)")
		resume   = flag.Bool("resume", false, "reuse the journal's completed cells (requires -journal)")
	)
	flag.Parse()

	cfg := &experiment.Config{
		PopScale: *scale,
		Reps:     *reps,
		Seed:     *seed,
		Oracle:   *oracle,
		Audit:    *audit,
		Workers:  *workers,
	}
	if *methods != "" {
		cfg.Methods = strings.Split(*methods, ",")
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	builders := cfg.Plans()
	var ids []string
	if *exp == "all" {
		ids = experimentIDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if builders[id] == nil {
				fatalf("unknown experiment %q; available: %s", id, strings.Join(experimentIDs(), " "))
			}
			ids = append(ids, id)
		}
	}

	j := openJournal(*journal, *resume)
	if j != nil {
		defer j.Close()
	}

	sched := cfg.NewScheduler(j)
	plans := make([]experiment.Plan, len(ids))
	for i, id := range ids {
		plans[i] = builders[id]()
	}
	sched.Announce(plans...)
	prog := newProgressPrinter(os.Stderr)
	sched.OnProgress = prog.update

	start := time.Now()
	var jsonTables []experiment.Table
	for i, id := range ids {
		fmt.Fprintf(os.Stderr, "=== %s (scale=%g, oracle=%s, reps=%d) ===\n", id, *scale, *oracle, *reps)
		idStart := time.Now()
		tables, err := sched.Run(plans[i])
		if err != nil {
			prog.clear()
			fatalf("%s: %v", id, err)
		}
		prog.clear()
		if *format == "json" {
			// One well-formed JSON document across all experiments.
			jsonTables = append(jsonTables, tables...)
		} else if err := experiment.Write(os.Stdout, tables, *format); err != nil {
			fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(idStart).Round(time.Millisecond))
	}
	if *format == "json" {
		if err := experiment.Write(os.Stdout, jsonTables, "json"); err != nil {
			fatalf("json: %v", err)
		}
	}
	prog.finish(sched.Stats(), time.Since(start))
}

// openJournal opens the run journal under dir, guarding against silently
// clobbering (or silently reusing) a previous run's records: an existing
// non-empty journal requires an explicit -resume.
func openJournal(dir string, resume bool) *runlog.Journal {
	if dir == "" {
		if resume {
			fatalf("-resume requires -journal DIR")
		}
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("journal: %v", err)
	}
	path := filepath.Join(dir, "runlog.jsonl")
	if !resume {
		if st, err := os.Stat(path); err == nil && st.Size() > 0 {
			fatalf("journal %s already holds records; pass -resume to reuse them or remove the file", path)
		}
	}
	j, err := runlog.Open(path)
	if err != nil {
		fatalf("journal: %v", err)
	}
	return j
}

// progressPrinter renders scheduler progress on stderr: a live rewritten
// line on terminals, throttled plain lines otherwise (CI logs).
type progressPrinter struct {
	w       *os.File
	tty     bool
	last    time.Time
	lastLen int
}

func newProgressPrinter(w *os.File) *progressPrinter {
	st, err := w.Stat()
	tty := err == nil && st.Mode()&os.ModeCharDevice != 0
	return &progressPrinter{w: w, tty: tty}
}

func formatProgress(p experiment.Progress) string {
	s := fmt.Sprintf("cells %d/%d (%d cached)", p.Done, p.Total, p.CacheHits)
	if p.ETA > 0 {
		s += fmt.Sprintf("  eta %v", p.ETA.Round(time.Second))
	}
	return s
}

// update is called by the scheduler after every completed run group.
func (pp *progressPrinter) update(p experiment.Progress) {
	line := formatProgress(p)
	if pp.tty {
		pad := pp.lastLen - len(line)
		if pad < 0 {
			pad = 0
		}
		fmt.Fprintf(pp.w, "\r%s%s", line, strings.Repeat(" ", pad))
		pp.lastLen = len(line)
		return
	}
	if time.Since(pp.last) < 2*time.Second && p.Done < p.Total {
		return
	}
	pp.last = time.Now()
	fmt.Fprintln(pp.w, line)
}

// clear ends a live progress line before other stderr output.
func (pp *progressPrinter) clear() {
	if pp.tty && pp.lastLen > 0 {
		fmt.Fprintf(pp.w, "\r%s\r", strings.Repeat(" ", pp.lastLen))
		pp.lastLen = 0
	}
}

// finish prints the invocation summary.
func (pp *progressPrinter) finish(p experiment.Progress, elapsed time.Duration) {
	pp.clear()
	fmt.Fprintf(pp.w, "done: %d cells (%d cached, %d runs) in %v\n",
		p.Done, p.CacheHits, p.RunsDone, elapsed.Round(time.Millisecond))
}
