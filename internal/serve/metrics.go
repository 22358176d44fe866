package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"ldpids/internal/obs"
)

// Pipeline stage names stamped on the ldpids_gateway_stage_seconds
// histogram. decode/fold/journal are per-batch server-side stages;
// release times the publish+persist hook after a mechanism releases.
const (
	stageDecode  = "decode"
	stageFold    = "fold"
	stageJournal = "journal"
	stageRelease = "release"
)

var (
	// roundLatencyBuckets spans in-process rounds (~ms) to distributed
	// rounds waiting on slow clients (~tens of seconds).
	roundLatencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 30}
	batchReportBuckets  = []float64{1, 4, 16, 64, 256, 1024, 4096}
	reportByteBuckets   = []float64{4, 8, 16, 32, 64, 128, 256, 1024}
)

// Metrics holds the gateway's operational metrics on an obs.Registry
// and renders them in Prometheus text exposition format at /metrics. It
// is the typed handle that keeps every gateway family name a constant
// (checked by the metricnames analyzer). All methods are safe for
// concurrent use and nil-receiver-safe, so instrumented code never checks
// whether metrics are attached. NewMetrics is the only constructor: the
// zero value is not usable.
type Metrics struct {
	reg *obs.Registry

	// oracle and wire hold the deployment-level label values stamped on
	// stage histograms, settable once the flags are parsed (SetLabels).
	oracle atomic.Value // string
	wire   atomic.Value // string

	reportsFolded *obs.Counter
	bytesIn       *obs.Counter
	rounds        *obs.Counter
	roundFailures *obs.Counter
	releases      *obs.Counter
	roundLatency  *obs.Histogram
	refusals      *obs.CounterVec
	stageSeconds  *obs.HistogramVec
	batchReports  *obs.HistogramVec
	reportBytes   *obs.HistogramVec
}

// NewMetrics returns gateway metrics registered on reg, or on a fresh
// private registry when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg: reg,
		reportsFolded: reg.Counter("ldpids_gateway_reports_folded_total",
			"Perturbed reports folded into round aggregates."),
		bytesIn: reg.Counter("ldpids_gateway_bytes_in_total",
			"Request body bytes ingested on /v1/report."),
		rounds: reg.Counter("ldpids_gateway_rounds_total",
			"Collection rounds finished (complete or failed)."),
		roundFailures: reg.Counter("ldpids_gateway_round_failures_total",
			"Collection rounds that timed out or failed."),
		releases: reg.Counter("ldpids_gateway_releases_total",
			"Releases published to the snapshot store."),
		roundLatency: reg.Histogram("ldpids_gateway_round_latency_seconds",
			"Wall-clock latency of collection rounds.", roundLatencyBuckets),
		refusals: reg.CounterVec("ldpids_gateway_refusals_total",
			"Report batches refused, by history journal reason.", "reason"),
		stageSeconds: reg.HistogramVec("ldpids_gateway_stage_seconds",
			"Per-stage ingestion latency (decode, fold, journal, release).",
			obs.LatencyBuckets, "stage", "wire", "oracle"),
		batchReports: reg.HistogramVec("ldpids_gateway_batch_reports",
			"Reports per accepted batch.", batchReportBuckets, "wire"),
		reportBytes: reg.HistogramVec("ldpids_gateway_report_bytes",
			"Request-body bytes per report in accepted batches.", reportByteBuckets, "wire"),
	}
}

// Registry exposes the underlying registry so callers can co-register
// other families (cluster metrics, runtime gauges) on one /metrics
// surface. Nil-safe: returns nil on a nil receiver.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// SetLabels pins the deployment-level oracle and wire label values
// stamped on stage histograms whose samples are not tied to a specific
// request (release latency uses the configured wire; decode/fold use
// the batch's actual wire).
func (m *Metrics) SetLabels(oracle string, wire Wire) {
	if m == nil {
		return
	}
	m.oracle.Store(oracle)
	m.wire.Store(wireLabel(wire))
}

func (m *Metrics) oracleLabel() string {
	if v, ok := m.oracle.Load().(string); ok {
		return v
	}
	return ""
}

func (m *Metrics) wireLabelDefault() string {
	if v, ok := m.wire.Load().(string); ok {
		return v
	}
	return wireLabel(WireJSON)
}

// wireLabel normalizes a Wire to its metric label value; the zero Wire
// is the JSON default.
func wireLabel(w Wire) string {
	if w == WireBinary {
		return string(WireBinary)
	}
	return string(WireJSON)
}

// addReport counts one folded report.
func (m *Metrics) addReport() {
	if m == nil {
		return
	}
	m.reportsFolded.Inc()
}

// addBytes counts ingested request-body bytes.
func (m *Metrics) addBytes(n int64) {
	if m == nil {
		return
	}
	m.bytesIn.Add(n)
}

// addRefusal counts one refused batch under its history.Reason* label.
func (m *Metrics) addRefusal(reason string) {
	if m == nil {
		return
	}
	m.refusals.With(reason).Inc()
}

// observeStage records one pipeline-stage latency sample.
func (m *Metrics) observeStage(stage string, wire Wire, d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.With(stage, wireLabel(wire), m.oracleLabel()).ObserveDuration(d)
}

// observeBatch records an accepted batch's size and bytes-per-report.
func (m *Metrics) observeBatch(wire Wire, reports int, bodyBytes int64) {
	if m == nil || reports <= 0 {
		return
	}
	wl := wireLabel(wire)
	m.batchReports.With(wl).Observe(float64(reports))
	m.reportBytes.With(wl).Observe(float64(bodyBytes) / float64(reports))
}

// observeRound records one finished collection round and its latency.
func (m *Metrics) observeRound(d time.Duration, ok bool) {
	if m == nil {
		return
	}
	m.rounds.Inc()
	if !ok {
		m.roundFailures.Inc()
	}
	m.roundLatency.ObserveDuration(d)
}

// addRelease counts one published release.
func (m *Metrics) addRelease() {
	if m == nil {
		return
	}
	m.releases.Inc()
}

// ObserveRelease records the latency of publishing and persisting one
// release (the release stage on ldpids_gateway_stage_seconds, labeled
// with the deployment wire from SetLabels).
func (m *Metrics) ObserveRelease(d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.With(stageRelease, m.wireLabelDefault(), m.oracleLabel()).ObserveDuration(d)
}

// ServeHTTP implements http.Handler, rendering every family on the
// registry in Prometheus text exposition format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m == nil {
		m = NewMetrics(nil)
	}
	m.reg.ServeHTTP(w, r)
}
