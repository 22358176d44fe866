package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Snapshot is one published release: the estimate the mechanism released
// at timestamp T, stamped with a monotonically increasing version.
type Snapshot struct {
	// Version counts releases since the store was created, starting at 1.
	Version int64 `json:"version"`
	// T is the mechanism timestamp of the release.
	T int `json:"t"`
	// Estimate is the released histogram (or the one-element released
	// mean for numeric streams).
	Estimate []float64 `json:"estimate"`
}

// Snapshots is the versioned store behind the live query layer: the
// mechanism publishes each release as its round closes (internal/gateway),
// queries read the latest snapshot, and SSE subscribers receive every
// release. Publish copies the estimate and never blocks on consumers —
// a subscriber that falls behind its buffer misses intermediate releases
// but always catches the next one — so queries never block ingestion.
//
// Mount it at /v1/estimate (latest snapshot as JSON; 404 before the first
// release) and /v1/stream (Server-Sent Events, one "release" event per
// published snapshot).
type Snapshots struct {
	// Metrics, when non-nil, counts published releases.
	Metrics *Metrics

	mu      sync.Mutex
	latest  *Snapshot
	nextSub int
	subs    map[int]chan Snapshot
}

// subBuffer is each subscriber's channel buffer; a consumer more than this
// many releases behind starts missing intermediate ones.
const subBuffer = 16

// NewSnapshots returns an empty snapshot store.
func NewSnapshots() *Snapshots {
	return &Snapshots{subs: make(map[int]chan Snapshot)}
}

// Publish stores a new release and fans it out to subscribers without
// blocking.
func (s *Snapshots) Publish(t int, estimate []float64) {
	snap := Snapshot{T: t, Estimate: append([]float64(nil), estimate...)}
	s.mu.Lock()
	if s.latest != nil {
		snap.Version = s.latest.Version + 1
	} else {
		snap.Version = 1
	}
	s.latest = &snap
	for _, ch := range s.subs {
		select {
		case ch <- snap:
		default: // slow consumer: skip this release rather than block
		}
	}
	s.mu.Unlock()
	s.Metrics.addRelease()
}

// Latest returns the most recent snapshot, if any release happened yet.
func (s *Snapshots) Latest() (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return Snapshot{}, false
	}
	return *s.latest, true
}

// Subscribe registers a release subscriber; cancel unregisters it and
// closes the channel.
func (s *Snapshots) Subscribe() (<-chan Snapshot, func()) {
	ch := make(chan Snapshot, subBuffer)
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.mu.Unlock()
	}
	return ch, cancel
}

// ServeHTTP implements http.Handler, routing /v1/estimate and /v1/stream.
func (s *Snapshots) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/estimate":
		s.handleEstimate(w, r)
	case "/v1/stream":
		s.handleStream(w, r)
	default:
		HTTPError(w, http.StatusNotFound, "serve: unknown path %s", r.URL.Path)
	}
}

// handleEstimate serves the latest release as JSON.
func (s *Snapshots) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "serve: %s /v1/estimate", r.Method)
		return
	}
	snap, ok := s.Latest()
	if !ok {
		HTTPError(w, http.StatusNotFound, "serve: no release published yet")
		return
	}
	WriteJSON(w, snap)
}

// handleStream serves releases as Server-Sent Events: the latest snapshot
// immediately (so a new consumer has a starting state), then one "release"
// event per published snapshot until the client disconnects.
func (s *Snapshots) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "serve: %s /v1/stream", r.Method)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		HTTPError(w, http.StatusInternalServerError, "serve: response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, cancel := s.Subscribe()
	defer cancel()
	send := func(snap Snapshot) bool {
		data, err := json.Marshal(snap)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: release\nid: %d\ndata: %s\n\n", snap.Version, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	lastSent := int64(0)
	if snap, ok := s.Latest(); ok {
		if !send(snap) {
			return
		}
		lastSent = snap.Version
	}
	for {
		select {
		case snap, ok := <-ch:
			if !ok {
				return
			}
			if snap.Version <= lastSent {
				continue
			}
			lastSent = snap.Version
			if !send(snap) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
