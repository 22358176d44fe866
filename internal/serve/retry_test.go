package serve

import (
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
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
