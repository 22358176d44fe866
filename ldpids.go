// Package ldpids is a Go implementation of LDP-IDS (Ren et al., SIGMOD
// 2022): local differential privacy for infinite data streams under
// w-event privacy.
//
// A population of user devices each holds a categorical value per
// timestamp; an untrusted aggregator continuously releases an estimated
// frequency histogram while every user is guaranteed ε-LDP over any window
// of w consecutive timestamps. The package provides the paper's seven
// mechanisms —
//
//	budget division:     LBU, LSP, LBD, LBA
//	population division: LPU, LPD, LPA
//
// — together with the frequency oracles they are built on (GRR, OUE, SUE,
// OLH, and the mean oracle, which makes every mechanism release means),
// synthetic and simulated-trace stream generators, evaluation
// metrics (MRE, ROC/AUC event monitoring, CFPU communication cost), a
// runtime w-event privacy auditor, and a pluggable collection layer:
// mechanisms step through a CollectEnv over any Collector backend — the
// in-process simulation or, for real processes, the HTTP ingestion backend
// behind cmd/ldpids-gateway — all producing bit-identical estimates from
// identical seeds.
//
// # Quick start
//
//	root := ldpids.NewSource(42)
//	s := ldpids.NewBinaryStream(10000, ldpids.DefaultSin(), root.Split())
//	oracle := ldpids.NewGRR(2)
//	m, _ := ldpids.NewMechanism("LPA", ldpids.Params{
//		Eps: 1, W: 20, N: 10000, Oracle: oracle, Src: root.Split(),
//	})
//	runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split()}
//	res, _ := runner.Run(m, 100)
//	fmt.Println("MRE:", ldpids.MRE(res.Released, res.True, 0))
//
// See the examples directory for complete programs and cmd/ldpids-bench
// for the full reproduction of the paper's evaluation.
package ldpids

import (
	"ldpids/internal/collect"
	"ldpids/internal/comm"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
	"ldpids/internal/metrics"
	"ldpids/internal/monitor"
	"ldpids/internal/stream"
	"ldpids/internal/trace"
	"ldpids/internal/window"
)

// ---------------------------------------------------------------------------
// Randomness.
// ---------------------------------------------------------------------------

// Source is a deterministic, splittable randomness source; all stochastic
// components consume one.
type Source = ldprand.Source

// NewSource returns a Source seeded from seed.
func NewSource(seed uint64) *Source { return ldprand.New(seed) }

// ---------------------------------------------------------------------------
// Frequency oracles.
// ---------------------------------------------------------------------------

// Oracle is an LDP frequency-oracle protocol (client-side randomizer plus
// server-side unbiased estimator).
type Oracle = fo.Oracle

// Report is one user's perturbed contribution.
type Report = fo.Report

// ReportKind identifies a report's wire format (value, unary, packed,
// hash, cohort, numeric).
type ReportKind = fo.Kind

// Aggregator folds perturbed reports into O(d) server-side counters as
// they arrive; streaming and batch aggregation yield identical estimates.
type Aggregator = fo.Aggregator

// StripedAggregator is the concurrent shard fold entry point: already-
// concurrent producers (HTTP handlers) fold reports into per-stripe locked
// counters; estimates are bit-identical to the plain Aggregator.
type StripedAggregator = fo.StripedAggregator

// NewStripedAggregator returns a concurrent aggregator for the oracle at
// budget eps across the given stripe count (< 1 selects one per CPU).
func NewStripedAggregator(o Oracle, eps float64, stripes int) (*StripedAggregator, error) {
	return fo.NewStripedAggregator(o, eps, stripes)
}

// NewGRR returns the Generalized Randomized Response oracle for domain
// size d.
func NewGRR(d int) Oracle { return fo.NewGRR(d) }

// NewOUE returns the Optimized Unary Encoding oracle for domain size d.
func NewOUE(d int) Oracle { return fo.NewOUE(d) }

// NewSUE returns the Symmetric Unary Encoding (basic RAPPOR) oracle.
func NewSUE(d int) Oracle { return fo.NewSUE(d) }

// NewOLH returns the Optimized Local Hashing oracle for domain size d.
func NewOLH(d int) Oracle { return fo.NewOLH(d) }

// NewOLHC returns the cohort-hashed Optimized Local Hashing oracle
// ("OLH-C") for domain size d: same privacy and variance as OLH, but the
// server folds each report in O(1) instead of O(d), making large-domain
// rounds O(n + k·d) instead of O(n·d).
func NewOLHC(d int) Oracle { return fo.NewOLHC(d) }

// NewOLHCCohorts is NewOLHC with an explicit public cohort count k.
func NewOLHCCohorts(d, k int) Oracle { return fo.NewOLHCCohorts(d, k) }

// NewOUEPacked returns an OUE oracle emitting the bit-packed wire format:
// 8x smaller reports, identical estimates.
func NewOUEPacked(d int) Oracle { return fo.NewOUEPacked(d) }

// NewSUEPacked returns an SUE oracle emitting the bit-packed wire format.
func NewSUEPacked(d int) Oracle { return fo.NewSUEPacked(d) }

// NewOracle constructs an oracle by registry name (see OracleNames).
func NewOracle(name string, d int) (Oracle, error) { return fo.New(name, d) }

// OracleNames lists every registered oracle name accepted by NewOracle.
func OracleNames() []string { return fo.Names() }

// BestOracle returns the lower-variance choice between GRR and OUE for the
// given domain size and budget.
func BestOracle(d int, eps float64) Oracle { return fo.Best(d, eps) }

// ---------------------------------------------------------------------------
// Streams.
// ---------------------------------------------------------------------------

// Stream produces each user's true value per timestamp.
type Stream = stream.Stream

// Process is a scalar probability sequence driving a binary stream.
type Process = stream.Process

// NewBinaryStream realizes a probability process over n users on the
// binary domain {0, 1}.
func NewBinaryStream(n int, proc Process, src *Source) Stream {
	return stream.NewBinaryStream(n, proc, src)
}

// NewLNS returns the paper's LNS Gaussian-walk process.
func NewLNS(p0, std float64, src *Source) Process { return stream.NewLNS(p0, std, src) }

// DefaultLNS returns the paper-default LNS process.
func DefaultLNS(src *Source) Process { return stream.DefaultLNS(src) }

// NewSin returns the paper's sine process A·sin(b·t)+h.
func NewSin(a, b, h float64) Process { return stream.NewSin(a, b, h) }

// DefaultSin returns the paper-default Sin process.
func DefaultSin() Process { return stream.DefaultSin() }

// NewLog returns the paper's logistic process A/(1+e^{-b·t}).
func NewLog(a, b float64) Process { return stream.NewLog(a, b) }

// DefaultLog returns the paper-default Log process.
func DefaultLog() Process { return stream.DefaultLog() }

// NewDistStream draws each user IID from a time-varying distribution.
func NewDistStream(n, d int, dist func(t int) []float64, src *Source) Stream {
	return stream.NewDistStream(n, d, dist, src)
}

// NewMarkovStream gives each user an independent sticky Markov chain over
// the domain.
func NewMarkovStream(n, d int, stay float64, init func(u int) int, jump func(t, cur int) int, src *Source) Stream {
	return stream.NewMarkovStream(n, d, stay, init, jump, src)
}

// LimitStream truncates a stream after T timestamps.
func LimitStream(s Stream, T int) Stream { return stream.Limit(s, T) }

// Histogram computes the frequency vector of vals over domain size d.
func Histogram(vals []int, d int) []float64 { return stream.Histogram(vals, d) }

// MaterializeStream snapshots the first T timestamps of a stream as
// per-timestamp value slices — handy for backends whose users answer from
// a fixed script.
func MaterializeStream(s Stream, T int) [][]int { return stream.Materialize(s, T) }

// Histograms computes the ground-truth histogram of every snapshot.
func Histograms(snaps [][]int, d int) [][]float64 { return stream.Histograms(snaps, d) }

// TaxiTrace returns the simulated T-Drive-like mobility stream (see
// DESIGN.md §4 for the substitution rationale).
func TaxiTrace(n, d int, src *Source) Stream { return trace.Taxi(n, d, src) }

// FoursquareTrace returns the simulated check-in stream.
func FoursquareTrace(n, d int, src *Source) Stream { return trace.Foursquare(n, d, src) }

// TaobaoTrace returns the simulated ad-click stream.
func TaobaoTrace(n, d int, src *Source) Stream { return trace.Taobao(n, d, src) }

// ---------------------------------------------------------------------------
// Mechanisms.
// ---------------------------------------------------------------------------

// Mechanism releases one histogram per timestamp under w-event ε-LDP.
type Mechanism = mechanism.Mechanism

// Params configures a mechanism.
type Params = mechanism.Params

// Env is the world a mechanism steps through (population + oracle access):
// each collection round folds its reports into a streaming Aggregator.
// CollectEnv implements it for every backend.
type Env = mechanism.Env

// ---------------------------------------------------------------------------
// Pluggable collection backends.
// ---------------------------------------------------------------------------

// Collector is a pluggable ingestion backend: it gathers one round of
// perturbed contributions from the user population and folds them into a
// sink. Backends include the in-process SimBackend and the HTTP backend in
// internal/serve; all produce bit-identical estimates from identical seeds
// (see internal/collect/collecttest).
type Collector = collect.Collector

// Sink folds one collection round's contributions into aggregate state.
type Sink = collect.Sink

// CollectRequest describes one collection round against a Collector.
type CollectRequest = collect.Request

// CollectEnv drives any Collector one timestamp at a time, layering
// communication accounting and an optional observer; it satisfies Env.
type CollectEnv = collect.Env

// NewCollectEnv returns a CollectEnv over the given backend. Call Advance
// once per timestamp before the mechanism's Step.
func NewCollectEnv(c Collector) *CollectEnv { return collect.NewEnv(c) }

// SimBackend is the in-process simulation backend: report closures run
// synchronously in request order.
type SimBackend = collect.Sim

// Runner drives a mechanism over a stream in-process.
type Runner = mechanism.Runner

// RunResult holds a run's releases, ground truth, communication stats and
// audit findings.
type RunResult = mechanism.RunResult

// MechanismNames lists all seven methods in the paper's order.
var MechanismNames = mechanism.Names

// NewMechanism constructs a mechanism by its paper name (LBU, LSP, LBD,
// LBA, LPU, LPD, LPA).
func NewMechanism(name string, p Params) (Mechanism, error) { return mechanism.New(name, p) }

// ---------------------------------------------------------------------------
// Privacy auditing.
// ---------------------------------------------------------------------------

// Accountant audits the w-event guarantee at runtime, exactly for every
// user: hook it into a Runner, or set a CollectEnv's Observer to its
// Observe method.
type Accountant = window.Accountant

// Violation is one charge that broke the w-event guarantee.
type Violation = window.Violation

// NewAccountant returns an accountant for budget eps per window of w
// timestamps.
func NewAccountant(eps float64, w int) *Accountant { return window.NewAccountant(eps, w) }

// ---------------------------------------------------------------------------
// Metrics and monitoring.
// ---------------------------------------------------------------------------

// CommStats summarizes communication cost (CFPU et al.).
type CommStats = comm.Stats

// ROCPoint is one operating point of a detector.
type ROCPoint = metrics.ROCPoint

// MRE returns the mean relative error between released and true streams.
func MRE(released, truth [][]float64, bound float64) float64 {
	return metrics.MRE(released, truth, bound)
}

// MAE returns the mean absolute error between released and true streams.
func MAE(released, truth [][]float64) float64 { return metrics.MAE(released, truth) }

// MSE returns the mean squared error between released and true streams.
func MSE(released, truth [][]float64) float64 { return metrics.MSE(released, truth) }

// ROC computes a detector's ROC curve from scores and ground-truth labels.
func ROC(scores []float64, labels []bool) []ROCPoint { return metrics.ROC(scores, labels) }

// AUC integrates a ROC curve.
func AUC(curve []ROCPoint) float64 { return metrics.AUC(curve) }

// PaperThreshold computes the paper's event threshold
// δ = 0.75·(max−min)+min over a series.
func PaperThreshold(series []float64) float64 { return metrics.PaperThreshold(series) }

// MonitorTask is an above-threshold detection instance.
type MonitorTask = monitor.Task

// MonitorEvent is a detected threshold crossing.
type MonitorEvent = monitor.Event

// Detector watches a released stream online for threshold crossings.
type Detector = monitor.Detector

// NewDetector returns a detector with one threshold per histogram element.
func NewDetector(thresholds []float64) *Detector { return monitor.NewDetector(thresholds) }

// ScalarMonitorTask builds the event-monitoring task over one histogram
// element.
func ScalarMonitorTask(released, truth [][]float64, k int) MonitorTask {
	return monitor.ScalarTask(released, truth, k)
}

// PooledMonitorTask builds the event-monitoring task pooled over all
// histogram dimensions.
func PooledMonitorTask(released, truth [][]float64) MonitorTask {
	return monitor.PooledTask(released, truth)
}
