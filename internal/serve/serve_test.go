package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
)

// cluster is an HTTP backend plus the client loops hosting its population.
type cluster struct {
	backend *Backend
	ts      *httptest.Server
	clients []*Client
	wg      sync.WaitGroup
}

// startCluster launches a backend for n users behind an httptest server,
// hosted by clients of the given sizes (sizes summing to n; nil means one
// client per user).
func startCluster(t *testing.T, n int, fns Funcs, sizes []int) *cluster {
	t.Helper()
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 10 * time.Second
	c := &cluster{backend: backend, ts: httptest.NewServer(backend)}
	if sizes == nil {
		for i := 0; i < n; i++ {
			sizes = append(sizes, 1)
		}
	}
	first := 0
	for _, size := range sizes {
		cl, err := NewClient(c.ts.URL, first, size, fns)
		if err != nil {
			t.Fatal(err)
		}
		cl.PollWait = 2 * time.Second
		first += size
		c.clients = append(c.clients, cl)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := cl.Serve(); err != nil {
				t.Errorf("client serve loop: %v", err)
			}
		}()
	}
	if first != n {
		t.Fatalf("client sizes sum to %d, want %d", first, n)
	}
	return c
}

func (c *cluster) stop() {
	c.backend.Close()
	for _, cl := range c.clients {
		cl.Close()
	}
	c.wg.Wait()
	c.ts.Close()
}

func conformanceSpecs() map[string]struct {
	spec  collecttest.Spec
	sizes []int
} {
	return map[string]struct {
		spec  collecttest.Spec
		sizes []int
	}{
		"GRR-batched":        {collecttest.Spec{N: 24, Oracle: fo.NewGRR(5), BaseSeed: 500}, []int{1, 7, 16}},
		"OUE-packed-batched": {collecttest.Spec{N: 18, Oracle: fo.NewOUE(100), BaseSeed: 600}, []int{9, 9}},
		"SUE-batched":        {collecttest.Spec{N: 12, Oracle: fo.NewSUE(9), BaseSeed: 650}, []int{12}},
		"OLH-single":         {collecttest.Spec{N: 6, Oracle: fo.NewOLH(8), BaseSeed: 700}, nil},
		"OLH-C-batched":      {collecttest.Spec{N: 20, Oracle: fo.NewOLHC(16), BaseSeed: 800}, []int{5, 15}},
		"Mean-batched":       {collecttest.Spec{N: 24, Oracle: fo.NewMean(), BaseSeed: 900}, []int{1, 7, 16}},
	}
}

// TestConformanceHTTP is the acceptance bar: the HTTP backend produces
// bit-identical estimates to the in-process reference, across single-user
// and batched clients, for every report wire shape.
func TestConformanceHTTP(t *testing.T) {
	for name, tc := range conformanceSpecs() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			collecttest.Run(t, tc.spec, func(t *testing.T) (collect.Collector, func()) {
				c := startCluster(t, tc.spec.N, Funcs{Report: tc.spec.Reporter()}, tc.sizes)
				return c.backend, c.stop
			})
		})
	}
}

// TestConformanceHTTPStriped drives the HTTP backend with stripe-folding
// round aggregators: handler goroutines fold shard-locally and the
// estimates stay bit-identical.
func TestConformanceHTTPStriped(t *testing.T) {
	for name, tc := range conformanceSpecs() {
		tc := tc
		t.Run(name, func(t *testing.T) {
			collecttest.RunStriped(t, tc.spec, 4, func(t *testing.T) (collect.Collector, func()) {
				c := startCluster(t, tc.spec.N, Funcs{Report: tc.spec.Reporter()}, tc.sizes)
				return c.backend, c.stop
			})
		})
	}
}

// manualRound opens a round on a bare backend (no clients) and returns its
// announcement, so failure-path tests can post raw batches against it.
func manualRound(t *testing.T, backend *Backend, ts *httptest.Server, req collect.Request, sink collect.Sink) (*RoundInfo, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- backend.Collect(req, sink) }()
	return openRound(t, ts), done
}

// openRound long-polls until a round is open and returns its announcement.
func openRound(t *testing.T, ts *httptest.Server) *RoundInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/round?wait=100ms")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var ri RoundInfo
			if err := json.NewDecoder(resp.Body).Decode(&ri); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return &ri
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("round was never announced")
		}
	}
}

// postJSON posts a raw body to /v1/report on the JSON wire.
func postJSON(t *testing.T, ts *httptest.Server, body []byte) (int, string) {
	t.Helper()
	return postReport(t, ts, ContentTypeJSON, body)
}

// postReport posts a raw body to /v1/report under the given content type
// and returns the status and the decoded error message (empty on 200).
func postReport(t *testing.T, ts *httptest.Server, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/report", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatalf("non-JSON error body (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, we.Error
}

// encodeBatch marshals a batch of GRR reports for the given users.
func encodeBatch(t *testing.T, ri *RoundInfo, users []int, value int) []byte {
	t.Helper()
	batch := reportBatch{Round: ri.Round, Token: ri.Token}
	for _, u := range users {
		batch.Reports = append(batch.Reports, encodeReport(u, fo.Report{Kind: fo.KindValue, Value: value}))
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestTimeoutPrunesSilentClients(t *testing.T) {
	backend, err := NewBackend(3)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 300 * time.Millisecond
	ts := httptest.NewServer(backend)
	defer ts.Close()
	defer backend.Close()

	// A "client" that long-polls the round but never reports: the round
	// must fail at the deadline naming the stragglers, not hang.
	ri, done := manualRound(t, backend, ts, collect.Request{T: 1, Eps: 1}, &collecttest.SliceSink{})
	if status, _ := postJSON(t, ts, encodeBatch(t, ri, []int{1}, 0)); status != http.StatusOK {
		t.Fatal("report for user 1 refused")
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "timed out") || !strings.Contains(err.Error(), "2/3") {
			t.Fatalf("timed-out round error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round with silent users hung past the deadline")
	}
	// Late reports into the pruned round are refused as stale.
	if status, msg := postJSON(t, ts, encodeBatch(t, ri, []int{0}, 0)); status != http.StatusConflict || !strings.Contains(msg, "stale round token") {
		t.Fatalf("late report after prune: status %d, msg %q", status, msg)
	}
}

// TestResetAfterTimedOutRound: a round that times out after some of its
// reports folded leaves nothing in the next round's estimate, though
// collect.Env re-arms the very aggregator those reports folded into.
func TestResetAfterTimedOutRound(t *testing.T) {
	const n = 4
	oracle := fo.NewGRR(5)
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 300 * time.Millisecond
	ts := httptest.NewServer(backend)
	defer ts.Close()
	defer backend.Close()
	env := collect.NewEnv(backend)
	collectAt := func(stamp int, agg fo.Aggregator) chan error {
		done := make(chan error, 1)
		env.Advance(stamp)
		go func() { done <- env.CollectStream(nil, 1, agg) }()
		return done
	}

	timedOut, err := env.NewRoundAggregator(oracle, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := collectAt(1, timedOut)
	if status, msg := postJSON(t, ts, encodeBatch(t, openRound(t, ts), []int{0, 1}, 4)); status != http.StatusOK {
		t.Fatalf("partial batch refused: %d %s", status, msg)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("round 1 = %v, want a timeout", err)
	}
	if timedOut.Reports() != 2 {
		t.Fatalf("the timed-out round folded %d reports, want 2", timedOut.Reports())
	}

	agg, err := env.NewRoundAggregator(oracle, 1)
	if err != nil {
		t.Fatal(err)
	}
	if agg != timedOut {
		t.Fatal("the next round did not re-arm the timed-out round's aggregator")
	}
	done = collectAt(2, agg)
	if status, msg := postJSON(t, ts, encodeBatch(t, openRound(t, ts), []int{0, 1, 2, 3}, 0)); status != http.StatusOK {
		t.Fatalf("round 2 batch refused: %d %s", status, msg)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := oracle.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if err := fresh.Add(fo.Report{Kind: fo.KindValue, Value: 0}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := fresh.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("round 2 estimates %v, want %v: the timed-out round's reports leaked", got, want)
	}
}

func TestShutdownMidRoundDrains(t *testing.T) {
	backend, err := NewBackend(4)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 30 * time.Second
	ts := httptest.NewServer(backend)
	defer ts.Close()

	ri, done := manualRound(t, backend, ts, collect.Request{T: 1, Eps: 1}, &collecttest.SliceSink{})
	if status, _ := postJSON(t, ts, encodeBatch(t, ri, []int{2}, 0)); status != http.StatusOK {
		t.Fatal("report refused before shutdown")
	}

	// A long poll parked for the *next* round must come back when the
	// backend closes, not hang.
	pollDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/round?after=%d&wait=20s", ri.Round))
		if err != nil {
			pollDone <- -1
			return
		}
		resp.Body.Close()
		pollDone <- resp.StatusCode
	}()
	time.Sleep(50 * time.Millisecond) // let the poll park

	backend.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "closed mid-round") {
			t.Fatalf("mid-round shutdown error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Collect hung across Close")
	}
	select {
	case status := <-pollDone:
		if status != http.StatusServiceUnavailable {
			t.Fatalf("parked poll status = %d, want 503", status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked long poll hung across Close")
	}
	// Everything is refused cleanly after Close.
	if status, _ := postJSON(t, ts, encodeBatch(t, ri, []int{0}, 0)); status != http.StatusServiceUnavailable {
		t.Fatalf("report after close: status %d", status)
	}
	if err := backend.Collect(collect.Request{T: 2, Eps: 1}, &collecttest.SliceSink{}); err == nil {
		t.Fatal("Collect after Close succeeded")
	}
	// ts.Close (deferred) proves the handler pool drained.
}

func TestRoundLongPollNoRound(t *testing.T) {
	backend, err := NewBackend(2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(backend)
	defer ts.Close()
	defer backend.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/round?wait=150ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle poll status = %d, want 204", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("idle poll returned after %v, want ~150ms park", elapsed)
	}
	// Bad parameters are 400s.
	for _, q := range []string{"?after=x", "?after=12abc", "?wait=x", "?wait=-1s"} {
		resp, err := http.Get(ts.URL + "/v1/round" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/round%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestBackendValidation(t *testing.T) {
	if _, err := NewBackend(0); err == nil {
		t.Fatal("zero population accepted")
	}
	backend, err := NewBackend(2)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	if err := backend.Collect(collect.Request{T: 1, Eps: 0}, &collecttest.SliceSink{}); err == nil {
		t.Fatal("zero eps accepted")
	}
	if err := backend.Collect(collect.Request{T: 1, Users: []int{5}, Eps: 1}, &collecttest.SliceSink{}); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := NewClient("http://x", 0, 1, Funcs{}); err == nil {
		t.Fatal("client without report functions accepted")
	}
	if _, err := NewClient("http://x", 0, 0, Funcs{Report: func(int, int, float64) fo.Report { return fo.Report{} }}); err == nil {
		t.Fatal("non-positive user count accepted")
	}
}
