package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldpids/internal/obs"
)

func TestSnapshotsPublishLatest(t *testing.T) {
	s := NewSnapshots()
	if _, ok := s.Latest(); ok {
		t.Fatal("empty store has a latest snapshot")
	}
	release := []float64{0.5, 0.5}
	s.Publish(1, release)
	release[0] = 99 // Publish must have copied
	snap, ok := s.Latest()
	if !ok || snap.Version != 1 || snap.T != 1 || snap.Estimate[0] != 0.5 {
		t.Fatalf("latest = %+v, ok=%v", snap, ok)
	}
	s.Publish(2, []float64{0.25, 0.75})
	snap, _ = s.Latest()
	if snap.Version != 2 || snap.T != 2 {
		t.Fatalf("latest after second publish = %+v", snap)
	}
}

func TestSnapshotsSubscribe(t *testing.T) {
	s := NewSnapshots()
	ch, cancel := s.Subscribe()
	s.Publish(1, []float64{1})
	select {
	case snap := <-ch:
		if snap.Version != 1 {
			t.Fatalf("subscriber got version %d", snap.Version)
		}
	case <-time.After(time.Second):
		t.Fatal("subscriber never notified")
	}
	// A slow consumer misses releases instead of blocking Publish.
	for i := 0; i < subBuffer+10; i++ {
		s.Publish(2+i, []float64{1})
	}
	cancel()
	cancel() // idempotent
	// The channel is closed after cancel; drain to the close.
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscriber channel never closed")
		}
	}
}

func TestEstimateEndpoint(t *testing.T) {
	s := NewSnapshots()
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("estimate before any release: status %d, want 404", resp.StatusCode)
	}

	s.Publish(3, []float64{0.125, 0.875})
	resp, err = http.Get(ts.URL + "/v1/estimate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 1 || snap.T != 3 || len(snap.Estimate) != 2 || snap.Estimate[1] != 0.875 {
		t.Fatalf("estimate = %+v", snap)
	}
}

func TestStreamSSE(t *testing.T) {
	s := NewSnapshots()
	ts := httptest.NewServer(s)
	defer ts.Close()
	s.Publish(1, []float64{0.5, 0.5})

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// Publish two more releases while the stream is attached.
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.Publish(2, []float64{0.4, 0.6})
		s.Publish(3, []float64{0.3, 0.7})
	}()

	scanner := bufio.NewScanner(resp.Body)
	var events []Snapshot
	var sawEventLine bool
	for scanner.Scan() && len(events) < 3 {
		line := scanner.Text()
		if line == "event: release" {
			sawEventLine = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var snap Snapshot
			if err := json.Unmarshal([]byte(data), &snap); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, snap)
		}
	}
	if !sawEventLine {
		t.Fatal("no 'event: release' line seen")
	}
	if len(events) != 3 {
		t.Fatalf("received %d releases, want 3 (got %+v)", len(events), events)
	}
	// The first event replays the latest snapshot; the rest arrive live in
	// version order.
	for i, snap := range events {
		if snap.Version != int64(i+1) || snap.T != i+1 {
			t.Fatalf("event %d = %+v", i, snap)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m := NewMetrics(nil)
	m.addReport()
	m.addReport()
	m.addBytes(100)
	m.observeRound(250*time.Millisecond, true)
	m.observeRound(100*time.Millisecond, false)
	m.addRelease()

	m.SetLabels("GRR", WireJSON)
	m.addRefusal("stale_token")
	m.observeStage(stageFold, WireJSON, 2*time.Millisecond)
	m.observeBatch(WireJSON, 8, 640)
	m.ObserveRelease(time.Millisecond)

	// All recorders are nil-safe.
	var nilM *Metrics
	nilM.addReport()
	nilM.addBytes(1)
	nilM.observeRound(time.Second, true)
	nilM.addRelease()
	nilM.addRefusal("stale_token")
	nilM.observeStage(stageFold, WireJSON, time.Second)
	nilM.observeBatch(WireJSON, 1, 1)
	nilM.ObserveRelease(time.Second)
	nilM.SetLabels("GRR", WireJSON)
	nilM.Registry()

	ts := httptest.NewServer(m)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE ldpids_gateway_reports_folded_total counter",
		"ldpids_gateway_reports_folded_total 2",
		"ldpids_gateway_bytes_in_total 100",
		"ldpids_gateway_rounds_total 2",
		"ldpids_gateway_round_failures_total 1",
		"ldpids_gateway_round_latency_seconds_sum 0.35",
		"ldpids_gateway_round_latency_seconds_count 2",
		"ldpids_gateway_releases_total 1",
		// The satellite fix: round latency is a real histogram now, with
		// cumulative buckets ending at +Inf under one TYPE histogram.
		"# TYPE ldpids_gateway_round_latency_seconds histogram",
		`ldpids_gateway_round_latency_seconds_bucket{le="+Inf"} 2`,
		`ldpids_gateway_refusals_total{reason="stale_token"} 1`,
		`ldpids_gateway_stage_seconds_bucket{stage="fold",wire="json",oracle="GRR",le="+Inf"} 1`,
		`ldpids_gateway_stage_seconds_bucket{stage="release",wire="json",oracle="GRR",le="+Inf"} 1`,
		`ldpids_gateway_batch_reports_bucket{wire="json",le="16"} 1`,
		`ldpids_gateway_report_bytes_count{wire="json"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
	// Exposition-format conformance: /metrics must parse as well-formed
	// Prometheus text the way a strict scraper reads it, line by line.
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics output fails exposition conformance: %v\n%s", err, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
}
