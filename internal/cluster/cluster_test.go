package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
)

// testCoordinator builds a coordinator with fast liveness knobs and an
// httptest server in front of it.
func testCoordinator(t *testing.T, n int, oracle string, d int) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(n, oracle, d)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 10 * time.Second
	c.PartitionTimeout = 5 * time.Second
	c.HeartbeatInterval = 50 * time.Millisecond
	c.TTL = 2 * time.Second
	c.Metrics = NewMetrics(nil)
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		c.Close()
		ts.Close()
	})
	return c, ts
}

// fakeReplica drives the coordinator's replica protocol by hand, so the
// membership tests control exactly when a participant ships, leaves, or
// goes silent.
type fakeReplica struct {
	t    *testing.T
	base string
	id   int64
}

// rawJoin posts a join request and returns the response and status.
func rawJoin(t *testing.T, base, name string, lo, hi, n int) (joinResponse, int) {
	t.Helper()
	body, err := json.Marshal(joinRequest{Name: name, Lo: lo, Hi: hi, N: n})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/cluster/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr joinResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return jr, resp.StatusCode
}

// joinFake registers a fake replica, failing the test on refusal.
func joinFake(t *testing.T, base, name string, lo, hi, n int) *fakeReplica {
	t.Helper()
	jr, status := rawJoin(t, base, name, lo, hi, n)
	if status != http.StatusOK {
		t.Fatalf("join %q [%d:%d) refused with status %d", name, lo, hi, status)
	}
	return &fakeReplica{t: t, base: base, id: jr.Replica}
}

// pollRound long-polls until the next round announcement arrives.
func (f *fakeReplica) pollRound(after int64) *announcement {
	f.t.Helper()
	u := f.base + "/cluster/v1/round?replica=" + itoa(f.id) + "&after=" + itoa(after) + "&wait=5s"
	resp, err := http.Get(u)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("poll answered status %d, want an announcement", resp.StatusCode)
	}
	var ann announcement
	if err := json.NewDecoder(resp.Body).Decode(&ann); err != nil {
		f.t.Fatal(err)
	}
	return &ann
}

// ship posts a counter shipment and returns the status.
func (f *fakeReplica) ship(ann *announcement, frame fo.CounterFrame, errStr string) int {
	f.t.Helper()
	sh := shipment{Round: ann.Round, Token: []byte(ann.Token), Replica: f.id, Err: errStr, Frame: frame}
	if err := sh.encode(); err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.Post(f.base+"/cluster/v1/counters", "application/octet-stream", bytes.NewReader(sh.body))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// leave posts a graceful departure.
func (f *fakeReplica) leave() {
	f.t.Helper()
	body, _ := json.Marshal(replicaRef{Replica: f.id})
	resp, err := http.Post(f.base+"/cluster/v1/leave", "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatal(err)
	}
	resp.Body.Close()
}

func itoa(v int64) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// shardReport is the deterministic per-user report used by the manual
// round tests: user u's source is seeded 1000+u, so any partitioning of
// the users produces the same report stream as the reference.
func shardReport(o fo.Oracle, u int, eps float64) fo.Report {
	return o.Perturb(u%o.Domain(), eps, ldprand.New(1000+uint64(u)))
}

// shardFrame folds users [lo, hi) into a fresh aggregator and exports the
// counter frame a well-behaved replica would ship.
func shardFrame(t *testing.T, o fo.Oracle, eps float64, lo, hi int) fo.CounterFrame {
	t.Helper()
	agg, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for u := lo; u < hi; u++ {
		if err := agg.Add(shardReport(o, u, eps)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fo.ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCoordinatorJoinValidation: population mismatches, malformed shards,
// and overlaps are refused; a re-join under a registered name replaces the
// old instance instead of conflicting with it.
func TestCoordinatorJoinValidation(t *testing.T) {
	c, ts := testCoordinator(t, 10, "GRR", 4)

	if _, status := rawJoin(t, ts.URL, "a", 0, 5, 99); status != http.StatusConflict {
		t.Fatalf("population mismatch answered %d, want 409", status)
	}
	for _, shard := range [][2]int{{-1, 5}, {5, 5}, {7, 3}, {5, 11}} {
		if _, status := rawJoin(t, ts.URL, "a", shard[0], shard[1], 10); status != http.StatusUnprocessableEntity {
			t.Fatalf("shard [%d:%d) answered %d, want 422", shard[0], shard[1], status)
		}
	}
	if _, status := rawJoin(t, ts.URL, "", 0, 5, 10); status != http.StatusUnprocessableEntity {
		t.Fatalf("nameless join answered %d, want 422", status)
	}

	a := joinFake(t, ts.URL, "a", 0, 5, 10)
	if _, status := rawJoin(t, ts.URL, "b", 3, 10, 10); status != http.StatusConflict {
		t.Fatalf("overlapping shard answered %d, want 409", status)
	}
	joinFake(t, ts.URL, "b", 5, 10, 10)

	// Same name, fresh instance: the old registration is replaced, not a
	// conflict — that is how a restarted replica re-claims its shard.
	a2 := joinFake(t, ts.URL, "a", 0, 5, 10)
	if a2.id == a.id {
		t.Fatal("re-join reused the replaced instance's id")
	}
	c.rounds.Lock()
	live := len(c.replicas)
	c.rounds.Unlock()
	if live != 2 {
		t.Fatalf("%d live replicas after a same-name re-join, want 2", live)
	}
}

// TestCoordinatorRefusesUnmergeableRounds: numeric mean rounds and sinks
// that cannot absorb counter frames are refused before any round opens.
func TestCoordinatorRefusesUnmergeableRounds(t *testing.T) {
	c, _ := testCoordinator(t, 10, "GRR", 4)
	if err := c.Collect(collect.Request{T: 1, Eps: 1, Numeric: true}, &collect.MeanSink{}); err == nil ||
		!strings.Contains(err.Error(), "numeric") {
		t.Fatalf("numeric round: got %v, want a numeric refusal", err)
	}
	if err := c.Collect(collect.Request{T: 1, Eps: 1}, &collecttest.SliceSink{}); err == nil ||
		!strings.Contains(err.Error(), "counter frames") {
		t.Fatalf("SliceSink: got %v, want a counter-sink refusal", err)
	}
}

// TestCoordinatorPartitionGate: a round refuses to open until the live
// shards exactly cover the population.
func TestCoordinatorPartitionGate(t *testing.T) {
	c, ts := testCoordinator(t, 10, "GRR", 4)
	c.PartitionTimeout = 200 * time.Millisecond
	joinFake(t, ts.URL, "a", 0, 5, 10)

	oracle := fo.NewGRR(4)
	agg, err := oracle.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Collect(collect.Request{T: 1, Eps: 1}, collect.AggregatorSink{Agg: agg})
	if err == nil || !strings.Contains(err.Error(), "[0:5)") {
		t.Fatalf("half-covered population: got %v, want a coverage error naming the gap", err)
	}
}

// TestRoundCompletesAndMerges: two shards ship their frames and the merged
// estimate is bit-identical to a single aggregator fed the same reports.
func TestRoundCompletesAndMerges(t *testing.T) {
	const n, eps = 6, 1.0
	c, ts := testCoordinator(t, n, "GRR", 4)
	oracle, err := fo.New("GRR", 4)
	if err != nil {
		t.Fatal(err)
	}
	a := joinFake(t, ts.URL, "a", 0, 3, n)
	b := joinFake(t, ts.URL, "b", 3, n, n)

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusOK {
		t.Fatalf("first shipment answered %d", status)
	}
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusConflict {
		t.Fatalf("duplicate shipment answered %d, want 409", status)
	}
	if status := b.ship(ann, shardFrame(t, oracle, eps, 3, n), ""); status != http.StatusOK {
		t.Fatalf("second shipment answered %d", status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Collect: %v", err)
	}

	reference, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if err := reference.Add(shardReport(oracle, u, eps)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := reference.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("merged estimate diverged at k=%d: %v != %v", k, got[k], want[k])
		}
	}
	if got := c.Metrics.value("ldpids_cluster_frames_merged_total"); got != 2 {
		t.Fatalf("frames_merged_total = %d, want 2", got)
	}
}

// TestRoundDegradedOnLeave: a participant that leaves before shipping its
// counters fails the round as degraded — the estimate never silently
// misses a shard.
func TestRoundDegradedOnLeave(t *testing.T) {
	const n, eps = 6, 1.0
	c, ts := testCoordinator(t, n, "GRR", 4)
	oracle, _ := fo.New("GRR", 4)
	a := joinFake(t, ts.URL, "a", 0, 3, n)
	b := joinFake(t, ts.URL, "b", 3, n, n)

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusOK {
		t.Fatalf("shipment answered %d", status)
	}
	b.leave() // without shipping: the round must degrade, not thin out
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("Collect after a mid-round leave: got %v, want a degraded-round error", err)
	}
	if got := c.Metrics.value("ldpids_cluster_rounds_degraded_total"); got != 1 {
		t.Fatalf("rounds_degraded_total = %d, want 1", got)
	}
	if got := c.Metrics.value("ldpids_cluster_leaves_total"); got != 1 {
		t.Fatalf("leaves_total = %d, want 1", got)
	}
}

// TestLeaveAfterShipCompletes: a replica that ships its final counters and
// then departs does not degrade the round — the departing shard's data is
// merged, exactly as the shutdown path promises.
func TestLeaveAfterShipCompletes(t *testing.T) {
	const n, eps = 6, 1.0
	c, ts := testCoordinator(t, n, "GRR", 4)
	oracle, _ := fo.New("GRR", 4)
	a := joinFake(t, ts.URL, "a", 0, 3, n)
	b := joinFake(t, ts.URL, "b", 3, n, n)

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusOK {
		t.Fatalf("shipment answered %d", status)
	}
	a.leave() // after shipping: the round completes on b's frame
	if status := b.ship(ann, shardFrame(t, oracle, eps, 3, n), ""); status != http.StatusOK {
		t.Fatalf("shipment answered %d", status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Collect after a post-ship leave: %v", err)
	}
	if got := agg.Reports(); got != n {
		t.Fatalf("merged %d reports, want %d", got, n)
	}
	if got := c.Metrics.value("ldpids_cluster_rounds_degraded_total"); got != 0 {
		t.Fatalf("rounds_degraded_total = %d, want 0", got)
	}
}

// TestRoundDegradedOnExpiry: a participant that goes silent mid-round is
// expired by the liveness check and degrades the round before the full
// round timeout.
func TestRoundDegradedOnExpiry(t *testing.T) {
	const n, eps = 6, 1.0
	c, ts := testCoordinator(t, n, "GRR", 4)
	c.TTL = 150 * time.Millisecond
	oracle, _ := fo.New("GRR", 4)
	a := joinFake(t, ts.URL, "a", 0, 3, n)
	joinFake(t, ts.URL, "b", 3, n, n) // never heartbeats, polls, or ships

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusOK {
		t.Fatalf("shipment answered %d", status)
	}
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("expiry did not degrade the round within 5s")
	}
	if err == nil || !strings.Contains(err.Error(), "degraded") || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("Collect with a dead participant: got %v, want a degraded-round error naming b", err)
	}
	// a, having shipped, may or may not expire on the same liveness tick
	// (it stops touching the coordinator after its shipment), so only b's
	// expiry is guaranteed.
	if got := c.Metrics.value("ldpids_cluster_expirations_total"); got < 1 {
		t.Fatalf("expirations_total = %d, want at least 1", got)
	}
}

// TestReplicaFailureFailsRound: a replica whose local round fails ships
// the error, and the coordinator surfaces it instead of releasing.
func TestReplicaFailureFailsRound(t *testing.T) {
	const n, eps = 6, 1.0
	c, ts := testCoordinator(t, n, "GRR", 4)
	oracle, _ := fo.New("GRR", 4)
	a := joinFake(t, ts.URL, "a", 0, 3, n)
	joinFake(t, ts.URL, "b", 3, n, n)

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	if status := a.ship(ann, fo.CounterFrame{}, "devices timed out"); status != http.StatusOK {
		t.Fatalf("error shipment answered %d", status)
	}
	err = <-done
	if err == nil || !strings.Contains(err.Error(), "devices timed out") {
		t.Fatalf("Collect after a replica failure: got %v, want the replica's error", err)
	}
}

// clusterHarness is a full in-process deployment: coordinator, real
// Replica loops over real HTTP backends, and serve.Client device
// processes — the same wiring cmd/ldpids-gateway does across processes.
type clusterHarness struct {
	t       *testing.T
	coord   *Coordinator
	coordTS *httptest.Server
	report  func(u, t int, eps float64) fo.Report

	// tracer, when set, names the tracer each harness role records into:
	// one per replica process (shared by the Replica loop and its serve
	// backend, as ldpids-gateway wires it) and one per device client.
	tracer func(role string) *obs.Tracer

	backends []*serve.Backend
	servers  []*httptest.Server
	clients  []*serve.Client
	cancels  []context.CancelFunc
	runErrs  []chan error
}

// startReplica launches one Replica loop (and its device client) over the
// shard [lo, hi).
func (h *clusterHarness) startReplica(name string, lo, hi int) {
	h.t.Helper()
	n := h.coord.N()
	backend, err := serve.NewBackend(n)
	if err != nil {
		h.t.Fatal(err)
	}
	backend.Timeout = 10 * time.Second
	ts := httptest.NewServer(backend)
	rep := &Replica{
		Coordinator: h.coordTS.URL,
		Name:        name,
		Lo:          lo,
		Hi:          hi,
		Backend:     backend,
		Retry:       serve.NewBackoff(2*time.Millisecond, 50*time.Millisecond, uint64(lo)+3),
		PollWait:    500 * time.Millisecond,
	}
	if h.tracer != nil {
		tr := h.tracer("replica-" + name)
		rep.Tracer = tr
		backend.Tracer = tr
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- rep.Run(ctx) }()

	cl, err := serve.NewClient(ts.URL, lo, hi-lo, serve.Funcs{Report: h.report})
	if err != nil {
		h.t.Fatal(err)
	}
	cl.PollWait = 500 * time.Millisecond
	if h.tracer != nil {
		cl.Tracer = h.tracer("client-" + name)
	}
	go func() { _ = cl.Serve() }()

	h.backends = append(h.backends, backend)
	h.servers = append(h.servers, ts)
	h.clients = append(h.clients, cl)
	h.cancels = append(h.cancels, cancel)
	h.runErrs = append(h.runErrs, errCh)
}

// stop tears the whole deployment down, requiring every Replica loop to
// exit cleanly.
func (h *clusterHarness) stop() {
	for _, cl := range h.clients {
		cl.Close()
	}
	for i, cancel := range h.cancels {
		cancel()
		select {
		case err := <-h.runErrs[i]:
			if err != nil {
				h.t.Errorf("replica %d: Run returned %v, want nil", i, err)
			}
		case <-time.After(10 * time.Second):
			h.t.Errorf("replica %d: Run did not exit within 10s of cancellation", i)
		}
	}
	for _, backend := range h.backends {
		backend.Close()
	}
	for _, ts := range h.servers {
		ts.Close()
	}
	h.coord.Close()
	h.coordTS.Close()
}

// newClusterHarness builds a two-replica deployment for the given spec.
func newClusterHarness(t *testing.T, s collecttest.Spec) *clusterHarness {
	t.Helper()
	oracleName := s.Oracle.Name()
	coord, coordTS := testCoordinator(t, s.N, oracleName, s.Oracle.Domain())
	report, _ := s.Reporters()
	h := &clusterHarness{t: t, coord: coord, coordTS: coordTS, report: report}
	h.startReplica("r1", 0, s.N/2)
	h.startReplica("r2", s.N/2, s.N)
	return h
}

// TestClusterConformanceGRR runs the canonical backend conformance script
// against a full two-replica deployment: every released estimate must be
// bit-identical to the in-process reference, exactly as for every other
// backend.
func TestClusterConformanceGRR(t *testing.T) {
	oracle, err := fo.New("GRR", 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := collecttest.Spec{N: 24, Oracle: oracle, BaseSeed: 0xC0FFEE}
	collecttest.RunStriped(t, spec, 4, func(t *testing.T) (collect.Collector, func()) {
		h := newClusterHarness(t, spec)
		return h.coord, h.stop
	})
}

// TestClusterConformanceOLHC covers the cohort-matrix frame shape
// end-to-end over the same deployment.
func TestClusterConformanceOLHC(t *testing.T) {
	oracle, err := fo.New("OLH-C", 12)
	if err != nil {
		t.Fatal(err)
	}
	spec := collecttest.Spec{N: 24, Oracle: oracle, BaseSeed: 0xBEEF}
	collecttest.RunStriped(t, spec, 4, func(t *testing.T) (collect.Collector, func()) {
		h := newClusterHarness(t, spec)
		return h.coord, h.stop
	})
}

// TestReplicaLeaveRejoinMidStream: a replica departs gracefully between
// rounds and re-joins under the same name; the stream continues with
// bit-identical estimates and zero degraded rounds — the availability
// story the cluster smoke exercises across real processes.
func TestReplicaLeaveRejoinMidStream(t *testing.T) {
	const n, d, eps = 8, 4, 1.0
	oracle, err := fo.New("GRR", d)
	if err != nil {
		t.Fatal(err)
	}
	spec := collecttest.Spec{N: n, Oracle: oracle, BaseSeed: 7}
	h := newClusterHarness(t, spec)
	defer h.stop()

	refReport, _ := spec.Reporters()
	reference := &collect.Sim{Users: n, Report: refReport}

	runRound := func(tstamp int) {
		t.Helper()
		wantAgg, err := oracle.NewAggregator(eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Collect(collect.Request{T: tstamp, Eps: eps}, collect.AggregatorSink{Agg: wantAgg}); err != nil {
			t.Fatal(err)
		}
		gotAgg, err := oracle.NewAggregator(eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.coord.Collect(collect.Request{T: tstamp, Eps: eps}, collect.AggregatorSink{Agg: gotAgg}); err != nil {
			t.Fatalf("t=%d: %v", tstamp, err)
		}
		want, err := wantAgg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		got, err := gotAgg.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("t=%d: estimate diverged at k=%d: %v != %v", tstamp, k, got[k], want[k])
			}
		}
	}

	runRound(1)

	// Gracefully stop replica r2 (it leaves between rounds) ...
	h.cancels[1]()
	select {
	case err := <-h.runErrs[1]:
		if err != nil {
			t.Fatalf("r2's Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("r2 did not exit within 10s of cancellation")
	}

	// ... and bring it back under the same name, over the same backend
	// (its device client stays connected throughout, like devices riding
	// out a replica restart).
	rep := &Replica{
		Coordinator: h.coordTS.URL,
		Name:        "r2",
		Lo:          n / 2,
		Hi:          n,
		Backend:     h.backends[1],
		Retry:       serve.NewBackoff(2*time.Millisecond, 50*time.Millisecond, 99),
		PollWait:    500 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- rep.Run(ctx) }()
	h.cancels[1] = cancel
	h.runErrs[1] = errCh

	runRound(2)
	runRound(3)

	if got := h.coord.Metrics.value("ldpids_cluster_rounds_degraded_total"); got != 0 {
		t.Fatalf("rounds_degraded_total = %d after a clean leave/re-join, want 0", got)
	}
	if got := h.coord.Metrics.value("ldpids_cluster_leaves_total"); got != 1 {
		t.Fatalf("leaves_total = %d, want 1", got)
	}
}

// TestCoordinatorRouting: every /cluster/v1/ path answers its one method,
// 405 to any other — before a parameter or a body byte is read — and an
// unknown path 404.
func TestCoordinatorRouting(t *testing.T) {
	_, ts := testCoordinator(t, 10, "GRR", 4)
	for path, method := range map[string]string{
		"/cluster/v1/join": http.MethodPost, "/cluster/v1/heartbeat": http.MethodPost,
		"/cluster/v1/leave": http.MethodPost, "/cluster/v1/counters": http.MethodPost,
		"/cluster/v1/round": http.MethodGet,
	} {
		for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(m, ts.URL+path+"?replica=not-a-number", strings.NewReader("not a body"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if wrong := resp.StatusCode == http.StatusMethodNotAllowed; wrong == (m == method) {
				t.Errorf("%s %s answered %d", m, path, resp.StatusCode)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/cluster/v1/nowhere")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path answered %d, want 404", resp.StatusCode)
	}
}
