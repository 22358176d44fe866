// Command ldpids-dump prints LDP-IDS log files in human-readable form.
//
// Without flags it reads a persisted release log (written by
// ldpids-gateway -out, package internal/store) and prints CSV: one row
// per timestamp, one column per histogram element.
//
// With -ingest it pretty-prints an ingestion history (written by
// ldpids-gateway -ingest-log, package internal/history) instead: one
// line per protocol event. The history is JSONL with one record per
// line; every record carries "kind" plus the kind's fields:
//
//	config  source, n, d, oracle, w, budget — the deployment parameters,
//	        always the first record
//	round   round, token, t, eps, all|users — one round
//	        announcement
//	batch   round, token, verdict, reason, status, folded, bytes,
//	        reports — one POST /v1/report outcome; accepted batches
//	        carry the full report payload, refusals the folded prefix
//	frame   round, token, verdict, reason, status, replica, lo, hi,
//	        frame — one replica counter-frame shipment outcome
//	close   round, t, ok, err|counters — the end of one round, with the
//	        sink's exported integer counters when it closed ok
//	release t, values — one published release
//
// ldpids-check replays the same records and proves the protocol
// invariants over them; ldpids-dump -ingest is the eyeball view.
//
// With -trace it merges one or more round-lifecycle trace logs (written
// by ldpids-gateway/-client -trace-log, package internal/obs) and prints
// Chrome trace-event JSON on stdout — load it in chrome://tracing or
// https://ui.perfetto.dev to see client posts, replica folds, shipments,
// and coordinator merges on one timeline, one process track per source.
//
// With -metrics it validates a saved /metrics scrape against the
// Prometheus text exposition format (histogram bucket ordering, reserved
// suffixes, duplicate series) and exits 1 on the first violation — CI
// pipes mid-stream scrapes through this.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"ldpids/internal/history"
	"ldpids/internal/obs"
	"ldpids/internal/store"
)

func main() {
	ingest := flag.Bool("ingest", false, "treat the argument as an ingestion history (-ingest-log), not a release log")
	trace := flag.Bool("trace", false, "merge the arguments as trace logs (-trace-log) and print Chrome trace-event JSON")
	metrics := flag.Bool("metrics", false, "validate the argument as a Prometheus text /metrics scrape")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-ingest | -metrics | -trace] <releases.ldps | ingest.jsonl | metrics.txt | trace.jsonl...>\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if *trace {
		if flag.NArg() < 1 {
			flag.Usage()
			os.Exit(2)
		}
		dumpTrace(flag.Args())
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *ingest:
		dumpIngest(flag.Arg(0))
	case *metrics:
		checkMetrics(flag.Arg(0))
	default:
		dumpReleases(flag.Arg(0))
	}
}

// dumpTrace merges the spans of every named trace log and prints them as
// Chrome trace-event JSON.
func dumpTrace(paths []string) {
	var spans []obs.SpanRecord
	for _, path := range paths {
		got, err := obs.ReadSpans(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, got...)
	}
	out, err := obs.ChromeTrace(spans)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := os.Stdout.Write(append(out, '\n')); err != nil {
		log.Fatal(err)
	}
}

// checkMetrics validates a saved /metrics scrape against the text
// exposition format, exiting 1 on the first violation.
func checkMetrics(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := obs.CheckExposition(f); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	fmt.Printf("%s: exposition format ok\n", path)
}

// dumpReleases prints a release log as CSV.
func dumpReleases(path string) {
	ts, hists, err := store.ReadAll(path)
	if err != nil {
		log.Fatal(err)
	}
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	if len(hists) == 0 {
		return
	}
	header := []string{"t"}
	for k := range hists[0] {
		header = append(header, fmt.Sprintf("f%d", k))
	}
	if err := w.Write(header); err != nil {
		log.Fatal(err)
	}
	for i, t := range ts {
		row := []string{strconv.Itoa(t)}
		for _, v := range hists[i] {
			row = append(row, strconv.FormatFloat(v, 'g', 6, 64))
		}
		if err := w.Write(row); err != nil {
			log.Fatal(err)
		}
	}
}

// dumpIngest prints an ingestion history, one line per record.
func dumpIngest(path string) {
	recs, err := history.ReadAll(path)
	if err != nil {
		log.Fatal(err)
	}
	for i, rec := range recs {
		fmt.Printf("%4d  %s\n", i, formatRecord(rec))
	}
}

// formatRecord renders one history record for reading.
func formatRecord(rec history.Record) string {
	switch rec.Kind {
	case history.KindConfig:
		s := fmt.Sprintf("config  %s n=%d d=%d oracle=%s", rec.Source, rec.N, rec.D, rec.Oracle)
		if rec.W > 0 {
			s += fmt.Sprintf(" w=%d budget=%g", rec.W, rec.Budget)
		}
		return s
	case history.KindRound:
		who := fmt.Sprintf("%d users", len(rec.Users))
		if rec.All {
			who = "all users"
		}
		return fmt.Sprintf("round   #%d t=%d eps=%g %s token=%s", rec.Round, rec.T, rec.Eps, who, rec.Token)
	case history.KindBatch:
		s := fmt.Sprintf("batch   #%d %s", rec.Round, rec.Verdict)
		if rec.Reason != "" {
			s += " (" + rec.Reason + ")"
		}
		return s + fmt.Sprintf(" status=%d folded=%d reports=%d bytes=%d", rec.Status, rec.Folded, len(rec.Reports), rec.Bytes)
	case history.KindFrame:
		s := fmt.Sprintf("frame   #%d %s", rec.Round, rec.Verdict)
		if rec.Reason != "" {
			s += " (" + rec.Reason + ")"
		}
		if rec.Replica != "" {
			s += fmt.Sprintf(" %s [%d:%d)", rec.Replica, rec.Lo, rec.Hi)
		}
		if rec.Frame != nil {
			s += fmt.Sprintf(" %s n=%d", rec.Frame.Shape, rec.Frame.N)
		}
		if rec.Err != "" {
			s += " err=" + strconv.Quote(rec.Err)
		}
		return s
	case history.KindClose:
		if !rec.OK {
			return fmt.Sprintf("close   #%d t=%d FAILED err=%s", rec.Round, rec.T, strconv.Quote(rec.Err))
		}
		s := fmt.Sprintf("close   #%d t=%d ok", rec.Round, rec.T)
		if rec.Counters != nil {
			s += fmt.Sprintf(" %s n=%d counters=%d", rec.Counters.Shape, rec.Counters.N, len(rec.Counters.Counts))
		}
		return s
	case history.KindRelease:
		vals := make([]string, 0, len(rec.Values))
		for _, v := range rec.Values {
			vals = append(vals, strconv.FormatFloat(v, 'g', 6, 64))
		}
		return fmt.Sprintf("release t=%d [%s]", rec.T, strings.Join(vals, " "))
	default:
		return fmt.Sprintf("%-7s (unknown kind)", rec.Kind)
	}
}
