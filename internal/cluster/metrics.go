package cluster

import (
	"io"
	"net/http"
	"time"

	"ldpids/internal/obs"
)

// Cluster pipeline stage names stamped on ldpids_cluster_stage_seconds:
// ship times a replica exporting and POSTing its counter frame; merge
// times the coordinator absorbing every shipped frame into the round
// sink.
const (
	stageShip  = "ship"
	stageMerge = "merge"
)

// Metrics holds the cluster-level metrics (coordinator membership and
// merge accounting, replica ship latency) on an obs.Registry. It is the
// typed handle that keeps every cluster family name a constant (checked
// by the metricnames analyzer). All methods are nil-receiver-safe,
// matching serve.Metrics, so instrumented code never checks whether
// metrics are attached. NewMetrics is the only constructor — the zero
// value is not usable — and is typically handed serve.Metrics' registry
// (its Registry method) so one /metrics endpoint serves both.
type Metrics struct {
	reg *obs.Registry

	replicas       *obs.Gauge
	joins          *obs.Counter
	leaves         *obs.Counter
	expirations    *obs.Counter
	roundsDegraded *obs.Counter
	framesMerged   *obs.Counter
	frameBytes     *obs.Counter
	framesRefused  *obs.CounterVec
	stageSeconds   *obs.HistogramVec
}

// NewMetrics returns cluster metrics registered on reg, or on a fresh
// private registry when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg: reg,
		replicas: reg.Gauge("ldpids_cluster_replicas",
			"Ingestion replicas currently registered with the coordinator."),
		joins: reg.Counter("ldpids_cluster_joins_total",
			"Replica registrations accepted."),
		leaves: reg.Counter("ldpids_cluster_leaves_total",
			"Graceful replica departures."),
		expirations: reg.Counter("ldpids_cluster_expirations_total",
			"Replicas dropped for missing heartbeats."),
		roundsDegraded: reg.Counter("ldpids_cluster_rounds_degraded_total",
			"Rounds failed because a participant vanished before shipping counters."),
		framesMerged: reg.Counter("ldpids_cluster_frames_merged_total",
			"Replica counter frames merged into round sinks."),
		frameBytes: reg.Counter("ldpids_cluster_frame_bytes_total",
			"Wire bytes of merged counter frames (their /cluster/v1/counters bodies)."),
		framesRefused: reg.CounterVec("ldpids_cluster_frames_refused_total",
			"Replica counter frames refused by the coordinator, by reason.", "reason"),
		stageSeconds: reg.HistogramVec("ldpids_cluster_stage_seconds",
			"Per-stage cluster latency (replica ship, coordinator merge).",
			obs.LatencyBuckets, "stage"),
	}
}

// Registry exposes the underlying registry so callers can co-register
// other families on the same /metrics surface. Nil-safe.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// setReplicas records the current registered-replica count.
func (m *Metrics) setReplicas(n int) {
	if m == nil {
		return
	}
	m.replicas.Set(int64(n))
}

// addJoin counts one replica registration.
func (m *Metrics) addJoin() {
	if m == nil {
		return
	}
	m.joins.Inc()
}

// addLeave counts one graceful replica departure.
func (m *Metrics) addLeave() {
	if m == nil {
		return
	}
	m.leaves.Inc()
}

// addExpiration counts one replica dropped for missing heartbeats.
func (m *Metrics) addExpiration() {
	if m == nil {
		return
	}
	m.expirations.Inc()
}

// addDegradedRound counts one round failed because a participant
// vanished before shipping its counters.
func (m *Metrics) addDegradedRound() {
	if m == nil {
		return
	}
	m.roundsDegraded.Inc()
}

// addFrame counts one replica counter frame merged into a round's sink
// and the bytes its shipment put on the wire.
func (m *Metrics) addFrame(wireBytes int) {
	if m == nil {
		return
	}
	m.framesMerged.Inc()
	m.frameBytes.Add(int64(wireBytes))
}

// addFrameRefusal counts one counter frame the coordinator refused,
// under its history.Reason* label.
func (m *Metrics) addFrameRefusal(reason string) {
	if m == nil {
		return
	}
	m.framesRefused.With(reason).Inc()
}

// observeStage records one cluster-stage latency sample (ship on
// replicas, merge on the coordinator).
func (m *Metrics) observeStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.With(stage).ObserveDuration(d)
}

// value reads one unlabeled series for in-process assertions (tests).
func (m *Metrics) value(name string) int64 {
	if m == nil {
		return 0
	}
	v, _ := m.reg.Value(name)
	return int64(v)
}

// Render renders every family on the registry in Prometheus text
// exposition format, body only (no headers). With a private registry
// that is exactly the cluster families; on a shared registry it renders
// everything mounted there.
func (m *Metrics) Render(w io.Writer) {
	if m == nil {
		m = NewMetrics(nil) // render zeros: the exposition shape stays stable
	}
	m.reg.Render(w)
}

// ServeHTTP implements http.Handler for a /metrics endpoint.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	m.Render(w)
}
