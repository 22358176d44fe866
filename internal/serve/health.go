package serve

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
)

// Health is the gateway's readiness probe, served at GET /v1/healthz: 503
// with {"status":"starting"} until the process has announced its first
// collection round, 200 with {"status":"ok"} from then on. Orchestrators
// and the cluster smoke test gate on it instead of sleeping and hoping —
// a replica is only ready once it has joined its coordinator and seen a
// round, a coordinator once its shards partitioned the population and the
// first round went out.
//
// All methods are nil-safe, mirroring Metrics: a nil *Health never
// reports ready but never panics, so wiring it up is optional.
type Health struct {
	ready atomic.Bool
}

// MarkReady flips the probe to 200. It is idempotent and safe for
// concurrent use.
func (h *Health) MarkReady() {
	if h == nil {
		return
	}
	h.ready.Store(true)
}

// Ready reports whether MarkReady has been called.
func (h *Health) Ready() bool {
	return h != nil && h.ready.Load()
}

// ServeHTTP implements http.Handler for GET /v1/healthz.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "serve: %s /v1/healthz", r.Method)
		return
	}
	status := struct {
		Status string `json:"status"`
	}{Status: "ok"}
	if !h.Ready() {
		status.Status = "starting"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(status)
		return
	}
	WriteJSON(w, status)
}
