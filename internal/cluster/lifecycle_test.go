package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	"ldpids/internal/serve"
)

// The round lifecycle (serve/lifecycle.go) is written once and owned twice:
// by serve.Backend, whose rounds collect device reports, and by Coordinator,
// whose rounds collect replica counter frames. roundOwner is what the state
// table below needs of either, so every row runs against both.
type roundOwner struct {
	collect.Collector
	close func() error
	// pin is the owner's SetNextRound.
	pin func(id int64, token string) error
	// poll is the owner's long-poll URL up to the after parameter.
	poll string
	// answer completes the announced round honestly, from two concurrent
	// posters.
	answer func(t *testing.T, ann announcement)
	// expired is what the owner calls a missed deadline.
	expired string
	// journal closes the ingest history and reads it back.
	journal func(t *testing.T) []history.Record
}

const (
	lifecycleUsers  = 4
	lifecycleDomain = 4
	lifecycleEps    = 1.0
)

// lifecycleJournal attaches a fresh ingest history and returns its reader.
func lifecycleJournal(t *testing.T, attach func(*history.Log)) func(t *testing.T) []history.Record {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ingest.jsonl")
	hist, err := history.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	attach(hist)
	return func(t *testing.T) []history.Record {
		t.Helper()
		if err := hist.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := history.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
}

// backendOwner is a serve.Backend whose rounds two posters answer over the
// JSON wire, two users each.
func backendOwner(t *testing.T, timeout time.Duration) *roundOwner {
	t.Helper()
	b, err := serve.NewBackend(lifecycleUsers)
	if err != nil {
		t.Fatal(err)
	}
	b.Timeout = timeout
	ts := httptest.NewServer(b)
	t.Cleanup(func() {
		b.Close()
		ts.Close()
	})
	o := &roundOwner{Collector: b, close: b.Close, pin: b.SetNextRound,
		poll: ts.URL + "/v1/round?", expired: "4/4 users did not report"}
	o.journal = lifecycleJournal(t, func(h *history.Log) { b.History = h })
	o.answer = func(t *testing.T, ann announcement) {
		t.Helper()
		postBoth(t, func(half int) (string, string, []byte) {
			batch := struct {
				Round   int64            `json:"round"`
				Token   string           `json:"token"`
				Reports []history.Report `json:"reports"`
			}{Round: ann.Round, Token: ann.Token}
			for u := 2 * half; u < 2*half+2; u++ {
				batch.Reports = append(batch.Reports, history.Report{User: u, Kind: fo.KindValue.String(), Value: u % lifecycleDomain})
			}
			body, err := json.Marshal(batch)
			if err != nil {
				t.Error(err)
			}
			return ts.URL + "/v1/report", serve.ContentTypeJSON, body
		})
	}
	return o
}

// coordinatorOwner is a Coordinator over two fake replicas, a[0:2) and
// b[2:4), that answer a round by shipping their shard's counter frames; a
// is the poller.
func coordinatorOwner(t *testing.T, timeout time.Duration) *roundOwner {
	t.Helper()
	c, ts := testCoordinator(t, lifecycleUsers, "GRR", lifecycleDomain)
	c.Timeout = timeout
	c.TTL = time.Minute // the fake replicas do not heartbeat
	oracle, err := fo.New("GRR", lifecycleDomain)
	if err != nil {
		t.Fatal(err)
	}
	reps := []*fakeReplica{
		joinFake(t, ts.URL, "a", 0, 2, lifecycleUsers),
		joinFake(t, ts.URL, "b", 2, 4, lifecycleUsers),
	}
	o := &roundOwner{Collector: c, close: c.Close, pin: c.rounds.Pin,
		poll:    fmt.Sprintf("%s/cluster/v1/round?replica=%d&", ts.URL, reps[0].id),
		expired: "no counters from a[0:2), b[2:4)"}
	o.journal = lifecycleJournal(t, func(h *history.Log) { c.History = h })
	o.answer = func(t *testing.T, ann announcement) {
		t.Helper()
		frames := []fo.CounterFrame{
			shardFrame(t, oracle, lifecycleEps, 0, 2),
			shardFrame(t, oracle, lifecycleEps, 2, 4),
		}
		postBoth(t, func(half int) (string, string, []byte) {
			sh := shipment{Round: ann.Round, Token: []byte(ann.Token), Replica: reps[half].id, Frame: frames[half]}
			if err := sh.encode(); err != nil {
				t.Error(err)
			}
			return ts.URL + "/cluster/v1/counters", "application/octet-stream", sh.body
		})
	}
	return o
}

// postBoth sends the two halves of a round's answer concurrently and
// requires both to be accepted.
func postBoth(t *testing.T, half func(i int) (url, contentType string, body []byte)) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url, contentType, body := half(i)
			resp, err := http.Post(url, contentType, bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("honest answer %d answered status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
}

// get issues one long-poll and returns the status and, on 200, the
// announcement (a RoundInfo decodes into the fields the two share).
func (o *roundOwner) get(t *testing.T, after int64, wait time.Duration) (int, announcement) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%safter=%d&wait=%s", o.poll, after, wait))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ann announcement
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ann); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ann
}

// open starts a Collect for timestamp ts and returns its announcement and
// eventual result.
func (o *roundOwner) open(t *testing.T, ts int) (announcement, chan error) {
	t.Helper()
	agg, err := fo.NewGRR(lifecycleDomain).NewAggregator(lifecycleEps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- o.Collect(collect.Request{T: ts, Eps: lifecycleEps}, collect.AggregatorSink{Agg: agg})
	}()
	status, ann := o.get(t, 0, 5*time.Second)
	if status != http.StatusOK || ann.T != ts {
		t.Fatalf("poll for the round of t=%d answered status %d, t=%d", ts, status, ann.T)
	}
	return ann, done
}

// run opens, answers and closes one round.
func (o *roundOwner) run(t *testing.T, ts int) announcement {
	t.Helper()
	ann, done := o.open(t, ts)
	o.answer(t, ann)
	if err := <-done; err != nil {
		t.Fatalf("round t=%d: %v", ts, err)
	}
	return ann
}

// wantErr requires err to mention want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%s: got %v, want an error mentioning %q", what, err, want)
	}
}

// TestLifecycle pins the shared round state machine once, through both of
// its owners.
func TestLifecycle(t *testing.T) {
	owners := []struct {
		name  string
		build func(*testing.T, time.Duration) *roundOwner
	}{{"backend", backendOwner}, {"coordinator", coordinatorOwner}}
	rows := []struct {
		name    string
		timeout time.Duration
		run     func(t *testing.T, o *roundOwner)
	}{
		{"open wakes a parked poll with the announcement", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			type answer struct {
				status int
				ann    announcement
			}
			parked := make(chan answer, 1)
			go func() {
				status, ann := o.get(t, 0, 5*time.Second)
				parked <- answer{status, ann}
			}()
			time.Sleep(30 * time.Millisecond) // let the poll park before the round opens
			ann, done := o.open(t, 1)
			got := <-parked
			if got.status != http.StatusOK || got.ann.Round != 1 || got.ann.Token == "" || got.ann.Token != ann.Token {
				t.Fatalf("parked poll woke with status %d, round %d, token %q; the round is %d / %q",
					got.status, got.ann.Round, got.ann.Token, ann.Round, ann.Token)
			}
			o.answer(t, ann)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"poll at the watermark parks and 204s at wait", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			ann, done := o.open(t, 1)
			start := time.Now()
			status, _ := o.get(t, ann.Round, 60*time.Millisecond)
			if status != http.StatusNoContent || time.Since(start) < 60*time.Millisecond {
				t.Fatalf("poll after=%d answered %d after %v, want 204 after the 60ms wait", ann.Round, status, time.Since(start))
			}
			o.answer(t, ann)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"second Collect while one is open is refused", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			ann, done := o.open(t, 1)
			err := o.Collect(collect.Request{T: 2, Eps: lifecycleEps}, collect.AggregatorSink{})
			wantErr(t, "second Collect", err, "already in progress")
			o.answer(t, ann)
			if err := <-done; err != nil {
				t.Fatalf("the open round did not survive the refused one: %v", err)
			}
		}},
		{"pinned id exceeds the last announced and lasts one round", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			if first := o.run(t, 1); first.Round != 1 {
				t.Fatalf("first round has id %d", first.Round)
			}
			wantErr(t, "pin at the last id", o.pin(1, "tok"), "not above the last announced id 1")
			wantErr(t, "pin without a token", o.pin(7, ""), "non-empty token")
			if err := o.pin(7, "pinned-token"); err != nil {
				t.Fatal(err)
			}
			if pinned := o.run(t, 2); pinned.Round != 7 || pinned.Token != "pinned-token" {
				t.Fatalf("pinned round announced as (%d, %q)", pinned.Round, pinned.Token)
			}
			if next := o.run(t, 3); next.Round != 8 || next.Token == "pinned-token" {
				t.Fatalf("round after the pin announced as (%d, %q), want id 8 under a fresh token", next.Round, next.Token)
			}
		}},
		{"deadline fails the round naming what is missing", 80 * time.Millisecond, func(t *testing.T, o *roundOwner) {
			_, done := o.open(t, 1)
			err := <-done
			wantErr(t, "unanswered round", err, "round t=1 timed out after 80ms")
			wantErr(t, "unanswered round", err, o.expired)
			if o.run(t, 2).Round != 2 {
				t.Fatal("the owner did not move on to round 2 after the timeout")
			}
		}},
		{"Close mid-round fails it and 503s pollers", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			ann, done := o.open(t, 1)
			parked := make(chan int, 1)
			go func() {
				status, _ := o.get(t, ann.Round, 5*time.Second)
				parked <- status
			}()
			time.Sleep(30 * time.Millisecond)
			if err := o.close(); err != nil {
				t.Fatal(err)
			}
			wantErr(t, "round open at Close", <-done, "closed mid-round")
			if status := <-parked; status != http.StatusServiceUnavailable {
				t.Fatalf("parked poller answered %d at Close, want 503", status)
			}
			if status, _ := o.get(t, 0, time.Second); status != http.StatusServiceUnavailable {
				t.Fatalf("poll after Close answered %d, want 503", status)
			}
			err := o.Collect(collect.Request{T: 2, Eps: lifecycleEps}, collect.AggregatorSink{})
			wantErr(t, "Collect after Close", err, "closed")
		}},
		{"journal orders round, answers, close", 10 * time.Second, func(t *testing.T, o *roundOwner) {
			for ts := 1; ts <= 3; ts++ {
				o.run(t, ts)
			}
			opened, closed, answers := map[int64]bool{}, map[int64]bool{}, 0
			for i, rec := range o.journal(t) {
				switch rec.Kind {
				case history.KindRound:
					opened[rec.Round] = true
				case history.KindBatch, history.KindFrame:
					answers++
					if !opened[rec.Round] || closed[rec.Round] {
						t.Fatalf("record %d: %s of round %d outside its round and close records", i, rec.Kind, rec.Round)
					}
				case history.KindClose:
					if !opened[rec.Round] || !rec.OK {
						t.Fatalf("record %d: close of round %d (ok=%v) without its round record", i, rec.Round, rec.OK)
					}
					closed[rec.Round] = true
				}
			}
			if len(closed) != 3 || answers != 6 {
				t.Fatalf("journal holds %d closed rounds and %d answers, want 3 and 6", len(closed), answers)
			}
		}},
	}
	for _, owner := range owners {
		for _, row := range rows {
			owner, row := owner, row
			t.Run(owner.name+"/"+row.name, func(t *testing.T) {
				t.Parallel()
				row.run(t, owner.build(t, row.timeout))
			})
		}
	}
}

// TestLifecycleLatchKeepsFirstError: only the first Finish counts, whoever
// loses the race (the last report against the deadline, a failed shipment
// against Close).
func TestLifecycleLatchKeepsFirstError(t *testing.T) {
	first := errors.New("first")
	l := serve.NewLatch()
	l.Finish(first)
	l.Finish(nil)
	l.Finish(errors.New("second"))
	if got := l.Err(); got != first {
		t.Fatalf("latch finished with %v, want the first error", got)
	}
}

// TestLifecyclePollParameters: the one long-poll handler parses its integers
// strictly for both owners ("12abc" is not replica 12 after round 7x) and
// refuses negative waits; the coordinator alone knows pollers by id.
func TestLifecyclePollParameters(t *testing.T) {
	backend := backendOwner(t, time.Second)
	coord := coordinatorOwner(t, time.Second)
	base := strings.TrimSuffix(coord.poll, "&") // ...?replica=<a's id>
	rows := []struct {
		name   string
		url    string
		status int
		msg    string
	}{
		{"backend after", backend.poll + "after=7x", http.StatusBadRequest, `serve: bad after parameter "7x"`},
		{"backend wait", backend.poll + "wait=-1s", http.StatusBadRequest, `serve: bad wait parameter "-1s"`},
		{"coordinator replica", base + "x", http.StatusBadRequest, `cluster: bad replica parameter`},
		{"coordinator no replica", strings.SplitN(base, "?", 2)[0], http.StatusBadRequest, `cluster: bad replica parameter ""`},
		{"coordinator after", base + "&after=7x", http.StatusBadRequest, `cluster: bad after parameter "7x"`},
		{"coordinator wait", base + "&wait=-1s", http.StatusBadRequest, `cluster: bad wait parameter "-1s"`},
		{"coordinator wait unit", base + "&wait=soon", http.StatusBadRequest, `cluster: bad wait parameter "soon"`},
		{"coordinator unknown replica", base + "999&wait=10ms", http.StatusNotFound, "(re-join)"},
		{"coordinator no round", base + "&wait=10ms", http.StatusNoContent, ""},
	}
	for _, row := range rows {
		resp, err := http.Get(row.url)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != row.status || !strings.Contains(body.Error, row.msg) {
			t.Errorf("%s: GET %s answered %d %q, want %d mentioning %q", row.name, row.url, resp.StatusCode, body.Error, row.status, row.msg)
		}
	}
}
