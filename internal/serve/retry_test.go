package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/ldprand"
)

// flakyListener sacrifices specific accepted connections (closing them
// before the server reads a byte), so the client sees transport errors on
// exactly the requests that land on those connections.
type flakyListener struct {
	net.Listener
	mu      sync.Mutex
	drop    map[int]bool // 1-based accepted-connection indexes to kill
	seen    int
	dropped int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.seen++
		kill := l.drop[l.seen]
		if kill {
			l.dropped++
		}
		l.mu.Unlock()
		if !kill {
			return conn, nil
		}
		conn.Close()
	}
}

func (l *flakyListener) droppedConns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// TestClientRetriesFlakyListener: transport errors on both the poll and
// the post path are retried with backoff instead of killing the client —
// connections 1 (the first poll) and 3 (the first post) die under the
// request, and the round still completes with every user's report folded
// exactly once.
func TestClientRetriesFlakyListener(t *testing.T) {
	const n, d, eps = 2, 4, 1.0
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	backend.Timeout = 20 * time.Second

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, drop: map[int]bool{1: true, 3: true}}
	srv := &http.Server{Handler: backend}
	srv.SetKeepAlivesEnabled(false) // one connection per request: the drop plan maps onto requests
	go srv.Serve(fl)
	defer srv.Close()

	oracle := fo.NewGRR(d)
	src := ldprand.New(11)
	var reportMu sync.Mutex
	cl, err := NewClient("http://"+ln.Addr().String(), 0, n, Funcs{
		Report: func(id, ts int, eps float64) fo.Report {
			reportMu.Lock()
			defer reportMu.Unlock()
			return oracle.Perturb(id%d, eps, src)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.PollWait = 250 * time.Millisecond
	cl.Retry = NewBackoff(2*time.Millisecond, 20*time.Millisecond, 1)
	cl.MaxRetries = 20
	serveErr := make(chan error, 1)
	go func() { serveErr <- cl.Serve() }()

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}); err != nil {
		t.Fatalf("round over the flaky listener failed: %v", err)
	}
	if got := agg.Reports(); got != n {
		t.Fatalf("folded %d reports, want %d", got, n)
	}
	if got := fl.droppedConns(); got != 2 {
		t.Fatalf("sacrificed %d connections, want 2 — the flake plan did not exercise the retry paths", got)
	}

	cl.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after retries and Close, want nil", err)
	}
}

// TestClientRetryBudgetExhausted: a dead address exhausts MaxRetries and
// surfaces the last transport error instead of spinning forever.
func TestClientRetryBudgetExhausted(t *testing.T) {
	// A listener that never accepts: dial succeeds, requests stall and die.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // now nothing listens: dials are refused immediately

	cl, err := NewClient("http://"+addr, 0, 1, Funcs{
		Report: func(id, ts int, eps float64) fo.Report { return fo.Report{Kind: fo.KindValue} },
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Retry = NewBackoff(time.Millisecond, 2*time.Millisecond, 2)
	cl.MaxRetries = 3
	defer cl.Close()
	if err := cl.Serve(); err == nil {
		t.Fatal("Serve returned nil against a refused address, want a give-up error")
	}
}

// TestSetNextRound: a pinned (id, token) pair is announced verbatim by
// the next Collect — the mechanism a cluster replica uses to keep device
// watermarks valid across replica restarts — and the pin API refuses
// regressions.
func TestSetNextRound(t *testing.T) {
	const n = 1
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	backend.Timeout = 5 * time.Second
	logPath := filepath.Join(t.TempDir(), "ingest.jsonl")
	hist, err := history.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	backend.History = hist

	if err := backend.SetNextRound(7, ""); err == nil {
		t.Fatal("empty pinned token accepted")
	}
	if err := backend.SetNextRound(0, "tok"); err == nil {
		t.Fatal("non-advancing pinned id accepted")
	}
	// A pinned token must have one spelling on the JSON wire.
	for _, tok := range []string{`a"b`, `a\b`, "é", "a<b"} {
		if err := backend.SetNextRound(7, tok); err == nil {
			t.Fatalf("pinned token %q accepted", tok)
		}
	}
	if err := backend.SetNextRound(7, "0123456789abcdef0123456789abcdef"); err != nil {
		t.Fatalf("hex pinned token refused: %v", err)
	}
	if err := backend.SetNextRound(7, "coordinator-token"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(backend)
	defer ts.Close()
	oracle := fo.NewGRR(3)
	src := ldprand.New(3)
	cl, err := NewClient(ts.URL, 0, n, Funcs{
		Report: func(id, ts int, eps float64) fo.Report { return oracle.Perturb(0, 1.0, src) },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Serve() }()
	defer cl.Close()

	for i := 0; i < 2; i++ {
		agg, err := oracle.NewAggregator(1.0)
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Collect(collect.Request{T: i + 1, Eps: 1.0}, collect.AggregatorSink{Agg: agg}); err != nil {
			t.Fatal(err)
		}
	}
	// Both rounds completed, so the client was announced — and echoed —
	// exactly the (id, token) pairs the journal's round records carry.
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := history.ReadAll(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []history.Record
	for _, rec := range recs {
		if rec.Kind == history.KindRound {
			rounds = append(rounds, rec)
		}
	}
	if len(rounds) != 2 {
		t.Fatalf("journaled %d round announcements, want 2", len(rounds))
	}
	first, second := rounds[0], rounds[1]
	if first.Round != 7 || first.Token != "coordinator-token" {
		t.Fatalf("pinned round announced as (%d, %q), want (7, \"coordinator-token\")", first.Round, first.Token)
	}
	if second.Round != 8 {
		t.Fatalf("round after the pin has id %d, want 8 (the sequence continues from the pin)", second.Round)
	}
	if second.Token == "coordinator-token" {
		t.Fatal("the pinned token leaked into the following round")
	}

	cl.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// scriptedTransport answers each request with the next step of a script: a
// transport error (status 0), a bare status, or 200 with a body. Once the
// script runs out it holds requests like an idle long-poll, until the
// request's context ends.
type scriptedTransport struct {
	mu    sync.Mutex
	steps []scriptStep
	seen  []string // method and path of every request, in order
}

type scriptStep struct {
	status int
	body   string
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	s.mu.Lock()
	s.seen = append(s.seen, req.Method+" "+req.URL.Path)
	var step *scriptStep
	if len(s.steps) > 0 {
		step, s.steps = &s.steps[0], s.steps[1:]
	}
	s.mu.Unlock()
	switch {
	case step == nil:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case step.status == 0:
		return nil, errors.New("scripted transport error")
	}
	return &http.Response{StatusCode: step.status, Body: io.NopCloser(strings.NewReader(step.body)), Request: req}, nil
}

func (s *scriptedTransport) requests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seen...)
}

// TestRetryBudget drives the one retry helper (Budget, through Client.Serve
// and its posts) with scripted outcomes: transient failures are ridden out
// and reset by a success, a spent budget surfaces the operation's give-up
// error (or nil after sustained 503s), non-transient statuses fail at once,
// and Close during a backoff sleep returns promptly.
func TestRetryBudget(t *testing.T) {
	const round = `{"round":1,"t":1,"eps":1,"token":"tok","users":[0],"n":1}`
	failing := func(n, status int) []scriptStep {
		steps := make([]scriptStep, n)
		for i := range steps {
			steps[i].status = status
		}
		return steps
	}
	rows := []struct {
		name     string
		steps    []scriptStep
		retries  int           // MaxRetries
		base     time.Duration // first backoff delay
		idle     bool          // Serve outlives the script: Close ends it
		wantErr  string        // "" means Serve returns nil
		requests []string
	}{
		{name: "transient failures are ridden out on both paths", retries: 2, idle: true,
			steps: []scriptStep{{status: 0}, {status: 502}, {status: 200, body: round}, {status: 0}, {status: 0}, {status: 200, body: `{"accepted":1}`},
				{status: 503}, {status: 504}, {status: 204}},
			requests: []string{"GET /v1/round", "GET /v1/round", "GET /v1/round", "POST /v1/report", "POST /v1/report", "POST /v1/report",
				"GET /v1/round", "GET /v1/round", "GET /v1/round", "GET /v1/round"}},
		{name: "poll budget spent on transport errors", retries: 3, steps: failing(9, 0),
			wantErr:  "serve: polling for rounds: giving up after 3 retries: ",
			requests: []string{"GET /v1/round", "GET /v1/round", "GET /v1/round", "GET /v1/round"}},
		{name: "sustained 503 ends the stream quietly", retries: 3, steps: failing(9, 503),
			requests: []string{"GET /v1/round", "GET /v1/round", "GET /v1/round", "GET /v1/round"}},
		{name: "negative budget gives up on the first failure", retries: -1, steps: failing(9, 0),
			wantErr: "serve: polling for rounds: giving up after 0 retries: ", requests: []string{"GET /v1/round"}},
		{name: "non-transient status fails at once", retries: 3, steps: failing(9, 404),
			wantErr: "serve: /v1/round returned status 404", requests: []string{"GET /v1/round"}},
		{name: "post budget spent", retries: 2, steps: append([]scriptStep{{status: 200, body: round}}, failing(9, 0)...),
			wantErr:  "serve: posting reports: giving up after 2 retries: ",
			requests: []string{"GET /v1/round", "POST /v1/report", "POST /v1/report", "POST /v1/report"}},
		{name: "Close during the backoff sleep returns promptly", retries: 3, base: time.Hour, idle: true, steps: failing(9, 0),
			requests: []string{"GET /v1/round"}},
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cl, err := NewClient("http://scripted.invalid", 0, 1, Funcs{
				Report: func(id, ts int, eps float64) fo.Report { return fo.Report{Kind: fo.KindValue} },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			script := &scriptedTransport{steps: row.steps}
			cl.hc.Transport = script
			cl.MaxRetries = row.retries
			if row.base == 0 {
				row.base = time.Millisecond
			}
			cl.Retry = NewBackoff(row.base, row.base, 5)
			done := make(chan error, 1)
			go func() { done <- cl.Serve() }()
			if row.idle {
				// Serve must still be running once every expected request was
				// made: parked on the exhausted script, or asleep in a backoff.
				for deadline := time.Now().Add(5 * time.Second); len(script.requests()) < len(row.requests); {
					if time.Now().After(deadline) {
						t.Fatalf("Serve made only %v", script.requests())
					}
					time.Sleep(time.Millisecond)
				}
				select {
				case err := <-done:
					t.Fatalf("Serve returned %v before Close", err)
				case <-time.After(20 * time.Millisecond):
				}
				cl.Close()
			}
			select {
			case err = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return")
			}
			switch {
			case row.wantErr == "" && err != nil:
				t.Fatalf("Serve returned %v, want nil", err)
			case row.wantErr != "" && (err == nil || !strings.Contains(err.Error(), row.wantErr)):
				t.Fatalf("Serve returned %v, want an error mentioning %q", err, row.wantErr)
			}
			if got := script.requests(); strings.Join(got, ",") != strings.Join(row.requests, ",") {
				t.Fatalf("requests made:\n %v\nwant\n %v", got, row.requests)
			}
		})
	}
}

// TestHosted: a poller answers for the announced users inside its range,
// in announcement order and with multiplicity, in one exactly-sized
// allocation; an empty share is non-nil (nil would mean "everyone").
func TestHosted(t *testing.T) {
	for _, row := range []struct {
		announced []int
		lo, hi    int
		want      []int
	}{
		{nil, 3, 6, []int{3, 4, 5}},
		{[]int{7, 2, 5, 2, 9, 4}, 2, 6, []int{2, 5, 2, 4}},
		{[]int{7, 9}, 2, 6, []int{}},
		{[]int{}, 0, 10, []int{}},
	} {
		got := Hosted(row.announced, row.lo, row.hi)
		if got == nil || !slices.Equal(got, row.want) || cap(got) != len(row.want) {
			t.Errorf("Hosted(%v, %d, %d) = %v (cap %d), want %v", row.announced, row.lo, row.hi, got, cap(got), row.want)
		}
	}
	announced := []int{7, 2, 5, 2, 9, 4}
	if allocs := testing.AllocsPerRun(10, func() { Hosted(announced, 2, 6) }); allocs != 1 {
		t.Fatalf("Hosted allocates %v times, want 1", allocs)
	}
}
