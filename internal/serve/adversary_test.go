package serve

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// TestAdversaryScheduleAudited runs a live backend under a hostile
// schedule — malformed bodies, forged/stale/replayed tokens, a NaN value,
// duplicate reports, oversized batches, a mid-post disconnect, a silent
// round —
// and proves two things: every attack was refused at the HTTP layer,
// and the resulting ingest history passes the offline checker (so no
// refused request influenced a counter), while a tampered copy of the
// same history fails it.
func TestAdversaryScheduleAudited(t *testing.T) {
	const n, d = 8, 4
	logPath := filepath.Join(t.TempDir(), "ingest.jsonl")
	hist, err := history.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	hist.Append(history.Record{Kind: history.KindConfig, Source: "gateway",
		N: n, D: d, Oracle: "GRR", W: 4, Budget: 4})

	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 10 * time.Second
	backend.MaxBatch = 16
	backend.History = hist
	ts := httptest.NewServer(backend)
	defer ts.Close()

	fns := Funcs{Report: func(id, t int, eps float64) fo.Report {
		return fo.Report{Kind: fo.KindValue, Value: id % d}
	}}
	// Honest clients host [0,4) and [5,8); the adversary hosts user 4,
	// so its attacks decide whether rounds complete.
	var (
		wg      sync.WaitGroup
		clients []*Client
	)
	for _, span := range [][2]int{{0, 4}, {5, 3}} {
		cl, err := NewClient(ts.URL, span[0], span[1], fns)
		if err != nil {
			t.Fatal(err)
		}
		cl.PollWait = 2 * time.Second
		clients = append(clients, cl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cl.Serve(); err != nil {
				t.Errorf("honest client: %v", err)
			}
		}()
	}
	adv, err := NewAdversary(ts.URL, 4, 1, fns, 42)
	if err != nil {
		t.Fatal(err)
	}

	oracle := fo.NewGRR(d)
	runRound := func(tt int) chan error {
		agg, err := oracle.NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- backend.Collect(collect.Request{T: tt, Eps: 1}, collect.AggregatorSink{Agg: agg})
		}()
		return done
	}
	mustStatus := func(what string, got int, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s answered %d, want %d", what, got, want)
		}
	}

	// Round 1: pre-fold attacks, then an honest answer arming the
	// replay, then the replay itself.
	done1 := runRound(1)
	ri, err := adv.AwaitRound(0)
	if err != nil || ri == nil {
		t.Fatalf("awaiting round 1: ri=%v err=%v", ri, err)
	}
	st, err := adv.Malformed()
	mustStatus("malformed body", st, err, http.StatusBadRequest)
	st, err = adv.ForgeToken(ri)
	mustStatus("forged token", st, err, http.StatusConflict)
	st, err = adv.Oversized(ri, backend.MaxBatch)
	mustStatus("oversized batch", st, err, http.StatusRequestEntityTooLarge)
	st, err = adv.Answer(ri)
	mustStatus("honest answer", st, err, http.StatusOK)
	st, err = adv.Replay()
	mustStatus("replayed batch", st, err, http.StatusConflict)
	if err := <-done1; err != nil {
		t.Fatalf("round 1: %v", err)
	}

	// Round 2: cross-round replay, duplicate report (its first fold
	// covers the adversary's user), and a disconnect mid-post.
	done2 := runRound(2)
	ri2, err := adv.AwaitRound(ri.Round)
	if err != nil || ri2 == nil {
		t.Fatalf("awaiting round 2: ri=%v err=%v", ri2, err)
	}
	st, err = adv.StaleRound(ri2)
	mustStatus("stale-round batch", st, err, http.StatusConflict)
	// Binary-wire attacks: corrupted magic, a frame cut mid-word, and a
	// lying length field must all be refused structurally (400), and an
	// unknown content type turned away unread (415).
	st, err = adv.BinaryBadMagic(ri2)
	mustStatus("binary bad magic", st, err, http.StatusBadRequest)
	st, err = adv.BinaryTruncated(ri2)
	mustStatus("binary truncated frame", st, err, http.StatusBadRequest)
	st, err = adv.BinaryLengthLie(ri2)
	mustStatus("binary length lie", st, err, http.StatusBadRequest)
	resp, err := http.Post(ts.URL+"/v1/report", "application/x-unknown", strings.NewReader("?"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mustStatus("unknown content type", resp.StatusCode, nil, http.StatusUnsupportedMediaType)
	if err := adv.TruncatedPost(ri2); err != nil {
		t.Fatalf("truncated post: %v", err)
	}
	// A NaN value is refused by the fold and leaves user 4's slot open for
	// the duplicate report's first fold.
	st, err = adv.HostileMean(ri2)
	mustStatus("NaN numeric report", st, err, http.StatusUnprocessableEntity)
	st, err = adv.DoubleReport(ri2, 4)
	mustStatus("duplicate report", st, err, http.StatusConflict)
	if err := <-done2; err != nil {
		t.Fatalf("round 2: %v", err)
	}

	// Round 3: the adversary disconnects for the whole round (never
	// answers); the deadline must fail the round rather than close it
	// short.
	backend.Timeout = 500 * time.Millisecond
	done3 := runRound(3)
	if err := <-done3; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("silent adversary must time the round out, got %v", err)
	}

	backend.Close()
	for _, cl := range clients {
		cl.Close()
	}
	wg.Wait()

	// The truncated post's refusal lands asynchronously; wait for all 12
	// hostile requests to be journaled.
	const wantRefused = 12
	var recs []history.Record
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := hist.Err(); err != nil {
			t.Fatal(err)
		}
		if recs, err = history.ReadAll(logPath); err != nil {
			t.Fatal(err)
		}
		refused := 0
		for _, rec := range recs {
			if rec.Kind == history.KindBatch && rec.Verdict == history.VerdictRefused {
				refused++
			}
		}
		if refused >= wantRefused || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	res := history.Check(recs)
	if !res.OK() {
		t.Fatalf("adversarial history must still pass the checker, got %q", res.Violations)
	}
	s := res.Summary
	if s.RefusedBatches != wantRefused {
		t.Errorf("refused batches = %d, want %d (%v)", s.RefusedBatches, wantRefused, s.Refusals)
	}
	// Deterministic refusal reasons: the malformed body, the truncated
	// post, and the three binary-framing attacks decode-fail, the
	// oversize trips the batch cap, the forged and stale tokens fail
	// authentication, the NaN value fails the fold, the duplicate report
	// finds its slot consumed, and the unknown content type is turned away
	// unread.
	if s.Refusals[history.ReasonMalformed] != 5 {
		t.Errorf("malformed refusals = %d, want 5 (%v)", s.Refusals[history.ReasonMalformed], s.Refusals)
	}
	if s.Refusals[history.ReasonBadReport] != 1 {
		t.Errorf("bad-report refusals = %d, want 1 (%v)", s.Refusals[history.ReasonBadReport], s.Refusals)
	}
	if s.Refusals[history.ReasonUnsupportedWire] != 1 {
		t.Errorf("unsupported-wire refusals = %d, want 1 (%v)", s.Refusals[history.ReasonUnsupportedWire], s.Refusals)
	}
	if s.Refusals[history.ReasonBatchTooLarge] != 1 {
		t.Errorf("batch-too-large refusals = %d, want 1 (%v)", s.Refusals[history.ReasonBatchTooLarge], s.Refusals)
	}
	if s.Refusals[history.ReasonStaleToken] < 2 {
		t.Errorf("stale-token refusals = %d, want >= 2 (%v)", s.Refusals[history.ReasonStaleToken], s.Refusals)
	}
	if s.Refusals[history.ReasonNotAwaited] < 1 {
		t.Errorf("not-awaited refusals = %d, want >= 1 (%v)", s.Refusals[history.ReasonNotAwaited], s.Refusals)
	}
	if s.Rounds != 3 || s.OKRounds != 2 {
		t.Errorf("rounds = %d ok = %d, want 3 and 2", s.Rounds, s.OKRounds)
	}
	// The duplicate report left an auditable partial fold.
	partial := false
	for _, rec := range recs {
		if rec.Kind == history.KindBatch && rec.Reason == history.ReasonNotAwaited && rec.Folded == 1 {
			partial = true
		}
	}
	if !partial {
		t.Error("duplicate report did not journal its folded prefix")
	}

	// Tampering with any accepted count must break the refold proof.
	for i := range recs {
		if recs[i].Kind == history.KindClose && recs[i].OK && recs[i].Counters != nil {
			recs[i].Counters.Counts[0]++
			break
		}
	}
	if history.Check(recs).OK() {
		t.Fatal("tampered counters must fail the checker")
	}
}

// TestAdversaryRefusalMetrics runs a refusal-only hostile schedule — no
// attack here ever folds a report — and asserts the gateway's per-reason
// refusal counters account for every attack while the fold counter stays
// at zero. Refusals must be observable without reading the journal.
func TestAdversaryRefusalMetrics(t *testing.T) {
	const n, d = 4, 4
	backend, err := NewBackend(n)
	if err != nil {
		t.Fatal(err)
	}
	backend.Timeout = 500 * time.Millisecond
	backend.MaxBatch = 8
	metrics := NewMetrics(nil)
	backend.Metrics = metrics
	ts := httptest.NewServer(backend)
	defer ts.Close()

	fns := Funcs{Report: func(id, t int, eps float64) fo.Report {
		return fo.Report{Kind: fo.KindValue, Value: id % d}
	}}
	adv, err := NewAdversary(ts.URL, 0, 1, fns, 7)
	if err != nil {
		t.Fatal(err)
	}

	oracle := fo.NewGRR(d)
	agg, err := oracle.NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- backend.Collect(collect.Request{T: 1, Eps: 1}, collect.AggregatorSink{Agg: agg})
	}()
	ri, err := adv.AwaitRound(0)
	if err != nil || ri == nil {
		t.Fatalf("awaiting round: ri=%v err=%v", ri, err)
	}
	mustStatus := func(what string, got int, err error, want int) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s answered %d, want %d", what, got, want)
		}
	}
	st, err := adv.Malformed()
	mustStatus("malformed body", st, err, http.StatusBadRequest)
	st, err = adv.ForgeToken(ri)
	mustStatus("forged token", st, err, http.StatusConflict)
	st, err = adv.Oversized(ri, backend.MaxBatch)
	mustStatus("oversized batch", st, err, http.StatusRequestEntityTooLarge)
	resp, err := http.Post(ts.URL+"/v1/report", "application/x-unknown", strings.NewReader("?"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mustStatus("unknown content type", resp.StatusCode, nil, http.StatusUnsupportedMediaType)
	// Nobody honest answers; the round times out rather than folding.
	if err := <-done; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("refusal-only round must time out, got %v", err)
	}
	backend.Close()

	count := func(reason string) float64 {
		v, _ := metrics.Registry().Value("ldpids_gateway_refusals_total", reason)
		return v
	}
	for _, reason := range []string{
		history.ReasonMalformed,
		history.ReasonStaleToken,
		history.ReasonBatchTooLarge,
		history.ReasonUnsupportedWire,
	} {
		if got := count(reason); got != 1 {
			t.Errorf("refusals{reason=%q} = %v, want 1", reason, got)
		}
	}
	if v, ok := metrics.Registry().Value("ldpids_gateway_reports_folded_total"); !ok || v != 0 {
		t.Errorf("reports folded = %v (ok=%v), want 0: refused requests must not fold", v, ok)
	}
}
