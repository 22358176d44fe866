package main

import (
	"bytes"
	"encoding/gob"
	"os"
	"sort"
	"time"

	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
)

// percentile returns the q-quantile (0..1) of xs by nearest rank, or 0
// for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// interval is a half-open stretch of tracer time.
type interval struct{ lo, hi time.Duration }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once, plus the first start and last end inside it.
func covered(ivs []interval, lo, hi time.Duration) (busy time.Duration, first, last time.Duration) {
	var clipped []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.lo < iv.hi {
			clipped = append(clipped, iv)
		}
	}
	if len(clipped) == 0 {
		return 0, lo, lo
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	first, last = clipped[0].lo, clipped[0].hi
	end := clipped[0].lo
	for _, iv := range clipped {
		if iv.hi > end {
			busy += iv.hi - max(iv.lo, end)
			end = iv.hi
		}
		last = max(last, iv.hi)
	}
	return busy, first, last
}

// ledger derives the per-layer metrics of one traced pass. Every sum
// covers the measured phase only: spans that start at or after the pass's
// epoch, and scrape deltas across it.
func ledger(out map[string]float64, tp *pass, tr *tracer) {
	var (
		byName    = map[string][]span{}
		reportIvs []interval
	)
	all := tr.snapshot()
	for _, s := range all {
		if s.start < tp.epoch {
			continue
		}
		byName[s.name] = append(byName[s.name], s)
		if s.name == spanReport {
			reportIvs = append(reportIvs, interval{s.start, s.end})
		}
	}
	total := func(name string) (sum time.Duration) {
		for _, s := range byName[name] {
			sum += s.dur()
		}
		return sum
	}
	delta := func(family string, labels ...string) float64 {
		return tp.after.sum(family, labels...) - tp.before.sum(family, labels...)
	}

	// Devices and clients.
	perturb := time.Duration(tr.perturbNs.Load() - tr.markNs)
	out["device.perturb_s"] = perturb.Seconds()
	out["device.reports"] = float64(tr.perturbed.Load() - tr.markCount)
	// A client's answer runs from its round poll returning to its next
	// poll being issued. The transport cannot tell the clients apart, but
	// every return is followed by exactly one issue, so the sum over all
	// clients needs no identities: Σ issue − Σ return.
	var issued, returned []time.Duration
	for _, s := range byName[spanPoll] {
		issued = append(issued, s.start)
	}
	for _, s := range all {
		if s.name == spanPoll && s.ok && s.end >= tp.epoch {
			returned = append(returned, s.end)
		}
	}
	sort.Slice(issued, func(i, j int) bool { return issued[i] < issued[j] })
	sort.Slice(returned, func(i, j int) bool { return returned[i] < returned[j] })
	var answer time.Duration
	for i := 0; i < min(len(issued), len(returned)); i++ {
		answer += issued[i] - returned[i]
	}
	postRTT := total(spanPost)
	out["client.answer_s"] = answer.Seconds()
	out["client.encode_s"] = (answer - perturb - postRTT).Seconds()
	out["client.posts"] = float64(len(byName[spanPost]))

	// HTTP between them.
	handler := total(spanReport)
	out["http.post_rtt_s"] = postRTT.Seconds()
	out["http.post_overhead_s"] = (postRTT - handler).Seconds()
	rounds := byName[spanRound]
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].start < rounds[j].start })
	var lags []float64
	for _, at := range returned {
		// The round a poll announces is the last one opened before it
		// returned.
		i := sort.Search(len(rounds), func(i int) bool { return rounds[i].start > at }) - 1
		if i >= 0 && at <= rounds[i].end {
			lags = append(lags, ms(at-rounds[i].start))
		}
	}
	out["http.announce_lag_ms_p50"] = percentile(lags, 0.5)

	// The serve ingest layer.
	var bodyBytes int64
	for _, s := range byName[spanReport] {
		bodyBytes += s.bytes
	}
	decode := delta("ldpids_gateway_stage_seconds_sum", `stage="decode"`)
	fold := delta("ldpids_gateway_stage_seconds_sum", `stage="fold"`)
	journal := delta("ldpids_gateway_stage_seconds_sum", `stage="journal"`)
	out["serve.report_handler_s"] = handler.Seconds()
	out["serve.report_posts"] = float64(len(byName[spanReport]))
	out["serve.report_body_bytes"] = float64(bodyBytes)
	out["serve.stage_decode_s"] = decode
	out["serve.stage_fold_s"] = fold
	out["serve.stage_journal_s"] = journal
	out["serve.report_handler_other_s"] = handler.Seconds() - decode - fold - journal
	publish := total(spanPublish)
	out["serve.publish_s"] = publish.Seconds()
	var queryMs, lateMs []float64
	for _, q := range tp.queries {
		queryMs = append(queryMs, ms(q.latency))
		lateMs = append(lateMs, ms(q.late))
	}
	out["serve.query_ms_p50"] = percentile(queryMs, 0.5)
	out["serve.query_late_ms_p50"] = percentile(lateMs, 0.5)
	out["serve.metrics_scrape_ms"] = ms(tp.scrapeTime)

	// Collection rounds, and within each the window in which report
	// handlers ran: what is left is open/announce/close (and, on the
	// cluster, fan-out, ship and merge).
	var (
		roundMs, overheadMs []float64
		idle, ingestWindow  time.Duration
	)
	for _, rd := range rounds {
		busy, first, last := covered(reportIvs, rd.start, rd.end)
		roundMs = append(roundMs, ms(rd.dur()))
		idle += rd.dur() - busy
		ingestWindow += last - first
		overheadMs = append(overheadMs, ms(rd.dur()-(last-first)))
	}
	roundTotal := total(spanRound)
	out["collect.rounds"] = float64(len(rounds))
	out["collect.round_s"] = roundTotal.Seconds()
	out["collect.round_ms_p50"] = percentile(roundMs, 0.5)
	out["collect.round_ms_p90"] = percentile(roundMs, 0.9)
	out["collect.round_idle_s"] = idle.Seconds()

	// Estimation and the mechanism around it. A timestamp span is one
	// Step; its self time is what its rounds, estimates and publish leave.
	estimate, step := total(spanEstimate), total(spanTimestamp)
	self := step - roundTotal - estimate - publish
	out["fo.estimate_s"] = estimate.Seconds()
	out["fo.estimates"] = float64(len(byName[spanEstimate]))
	out["mechanism.step_s"] = step.Seconds()
	out["mechanism.self_s"] = self.Seconds()

	// The cluster hop.
	counters := total(spanCounters)
	merge := delta("ldpids_cluster_stage_seconds_sum", `stage="merge"`)
	out["cluster.counters_handler_s"] = counters.Seconds()
	out["cluster.frames"] = delta("ldpids_cluster_frames_merged_total")
	out["cluster.frame_bytes"] = delta("ldpids_cluster_frame_bytes_total")
	out["cluster.stage_merge_s"] = merge
	out["cluster.stage_ship_s"] = delta("ldpids_cluster_stage_seconds_sum", `stage="ship"`)
	out["cluster.ingest_window_s"] = ingestWindow.Seconds()
	out["cluster.overhead_ms_p50"] = percentile(overheadMs, 0.5)
	out["cluster.degraded_rounds"] = delta("ldpids_cluster_rounds_degraded_total")

	// What the layers above do not explain: GC, net/http, the scheduler,
	// the digest and the harness itself.
	busy := (perturb + (answer - perturb - postRTT) + handler + counters + estimate + self + publish + total(spanQuery)).Seconds() + merge
	out["ledger.cpu_unattributed_share"] = 1 - busy/tp.cpuS
	out["runtime.gc_cpu_share"] = tp.gcCPUS / tp.cpuS
	out["runtime.gc_cycles"] = float64(tp.gcCycles)
}

// timeLoop calls fn repeatedly for about budget and returns the mean time
// per call.
func timeLoop(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// unitBudget bounds each direct-call measurement.
const unitBudget = 200 * time.Millisecond

// unitCosts measures the fo layer by direct calls at the workload's
// (oracle, d), outside any transport: what one perturb, one striped fold,
// one Estimate and one counter-frame export → gob → merge cost.
func unitCosts(out map[string]float64, s spec) error {
	o, err := fo.New(s.oracle, s.d)
	if err != nil {
		return err
	}
	roundEps := eps / window
	src := ldprand.New(1)
	v := 0
	out["fo.perturb_ns"] = float64(timeLoop(unitBudget, func() {
		o.Perturb(v%s.d, roundEps, src)
		v++
	}))
	report := o.Perturb(1, roundEps, src)
	striped, err := fo.NewStripedAggregator(o, roundEps, 2)
	if err != nil {
		return err
	}
	out["fo.fold_ns"] = float64(timeLoop(unitBudget, func() {
		err = striped.AddStripe(v%2, report)
		v++
	}))
	if err != nil {
		return err
	}
	var frame fo.CounterFrame
	out["fo.export_merge_ms"] = ms(timeLoop(unitBudget, func() {
		var buf bytes.Buffer
		into, aerr := o.NewAggregator(roundEps)
		if aerr != nil {
			err = aerr
			return
		}
		if frame, err = fo.ExportCounters(striped); err != nil {
			return
		}
		if err = gob.NewEncoder(&buf).Encode(frame); err != nil {
			return
		}
		var got fo.CounterFrame
		if err = gob.NewDecoder(&buf).Decode(&got); err != nil {
			return
		}
		err = fo.MergeCounters(into, got)
	}))
	if err != nil {
		return err
	}
	// Estimate is terminal on a striped aggregator, so each call gets a
	// fresh plain one carrying the same counters; only Estimate is timed.
	var spent time.Duration
	calls := 0
	for ; spent < unitBudget; calls++ {
		agg, err := o.NewAggregator(roundEps)
		if err != nil {
			return err
		}
		if err := fo.MergeCounters(agg, frame); err != nil {
			return err
		}
		start := time.Now()
		if _, err := agg.Estimate(); err != nil {
			return err
		}
		spent += time.Since(start)
	}
	out["fo.estimate_ms"] = ms(spent / time.Duration(calls))
	return nil
}

// journalAudit measures the history layer on the traced pass's ingest
// journal: one direct Append of a 4096-report batch record, then the full
// ReadAll and Check that cmd/ldpids-check runs. Workloads without a
// journal report zeros.
func journalAudit(out map[string]float64, path string) (violations []string, err error) {
	for _, name := range []string{"history.records", "history.journal_bytes", "history.read_s",
		"history.check_s", "history.check_reports_per_s", "history.violations", "history.append_us"} {
		out[name] = 0
	}
	if path == "" {
		return nil, nil
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	recs, err := history.ReadAll(path)
	if err != nil {
		return nil, err
	}
	read := time.Since(start)
	start = time.Now()
	res := history.Check(recs)
	check := time.Since(start)
	out["history.records"] = float64(len(recs))
	out["history.journal_bytes"] = float64(info.Size())
	out["history.read_s"] = read.Seconds()
	out["history.check_s"] = check.Seconds()
	out["history.check_reports_per_s"] = float64(res.Summary.FoldedReports) / (read + check).Seconds()
	out["history.violations"] = float64(len(res.Violations))

	// One accepted-batch record of DefaultMaxBatch reports, as the JSON
	// handler journals it, appended to a scratch log.
	var batch history.Record
	for _, r := range recs {
		if r.Kind == history.KindBatch && len(r.Reports) > len(batch.Reports) {
			batch = r
		}
	}
	scratch, err := history.Create(path + ".append")
	if err != nil {
		return nil, err
	}
	out["history.append_us"] = float64(timeLoop(unitBudget, func() { scratch.Append(batch) })) / 1e3
	if err := scratch.Close(); err != nil {
		return nil, err
	}
	return res.Violations, os.Remove(path + ".append")
}
