package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// refusalRig is one journaled, metered backend over a striped GRR sink,
// driven by hand on one wire: tests open rounds on it and post batches —
// honest or hostile — encoded for that wire.
type refusalRig struct {
	t       *testing.T
	wire    Wire
	backend *Backend
	ts      *httptest.Server
	sink    collect.AggregatorSink // the latest round's
	logPath string
	hist    *history.Log

	ri   *RoundInfo // the open round; nil when none is
	done chan error // its Collect result
}

const refusalUsers, refusalDomain = 4, 4

func newRefusalRig(t *testing.T, wire Wire) *refusalRig {
	t.Helper()
	r := &refusalRig{t: t, wire: wire, logPath: filepath.Join(t.TempDir(), "ingest.jsonl")}
	var err error
	if r.hist, err = history.Create(r.logPath); err != nil {
		t.Fatal(err)
	}
	r.hist.Append(history.Record{Kind: history.KindConfig, Source: "gateway",
		N: refusalUsers, D: refusalDomain, Oracle: "GRR", W: 4, Budget: 4})
	if r.backend, err = NewBackend(refusalUsers); err != nil {
		t.Fatal(err)
	}
	r.backend.Timeout = 10 * time.Second
	r.backend.History = r.hist
	r.backend.Metrics = NewMetrics(nil)
	// Deterministic tokens, so the two wires' journals are comparable.
	minted := 0
	r.backend.rounds.tokens = func() string { minted++; return fmt.Sprintf("%032x", minted) }
	r.ts = httptest.NewServer(r.backend)
	t.Cleanup(func() {
		r.backend.Close()
		r.ts.Close()
	})
	return r
}

// open starts a whole-population round at timestamp tt over a fresh sink.
func (r *refusalRig) open(tt int) {
	r.t.Helper()
	agg, err := fo.NewStripedAggregator(fo.NewGRR(refusalDomain), 1, 2)
	if err != nil {
		r.t.Fatal(err)
	}
	r.sink = collect.AggregatorSink{Agg: agg}
	r.ri, r.done = manualRound(r.t, r.backend, r.ts, collect.Request{T: tt, Eps: 1}, r.sink)
}

// batch builds an honest batch for the open round: one GRR report per
// listed user.
func (r *refusalRig) batch(users ...int) reportBatch {
	b := reportBatch{Round: r.ri.Round, Token: r.ri.Token}
	for _, u := range users {
		b.Reports = append(b.Reports, encodeContribution(u, collect.Contribution{
			Report: fo.Report{Kind: fo.KindValue, Value: u % refusalDomain},
		}))
	}
	return b
}

// post encodes the batch for the rig's wire and posts it.
func (r *refusalRig) post(b reportBatch) (int, string) {
	r.t.Helper()
	if r.wire == WireBinary {
		return r.postRaw(binaryFrame(r.t, b))
	}
	body, err := json.Marshal(b)
	if err != nil {
		r.t.Fatal(err)
	}
	return r.postRaw(body)
}

// postRaw posts raw bytes under the rig's wire's content type, returning
// the status and the error envelope's message (empty on 200).
func (r *refusalRig) postRaw(body []byte) (int, string) {
	r.t.Helper()
	contentType := ContentTypeJSON
	if r.wire == WireBinary {
		contentType = ContentTypeBinary
	}
	return postReport(r.t, r.ts, contentType, body)
}

// finish posts the open round's still-awaited users honestly, two per
// batch, and returns the round's result.
func (r *refusalRig) finish(awaited ...int) error {
	r.t.Helper()
	for ; len(awaited) > 0; awaited = awaited[min(2, len(awaited)):] {
		if status, msg := r.post(r.batch(awaited[:min(2, len(awaited))]...)); status != http.StatusOK {
			r.t.Fatalf("honest batch after the attack: status %d, msg %q", status, msg)
		}
	}
	err := <-r.done
	r.ri = nil
	return err
}

// refusalOutcome is everything a refused post may leave behind, in the
// wire-independent form the two wires must agree on.
type refusalOutcome struct {
	status   int
	record   history.Record // the refusal's journal record, Bytes zeroed
	refusals float64        // ldpids_gateway_refusals_total{reason}
	folded   float64        // ldpids_gateway_reports_folded_total
	counters fo.CounterFrame
	roundErr string
}

// TestRefusalParity is the one table of /v1/report refusals, with the
// wire as an input: for every refusal reason the handler can answer, a
// JSON post and a binary post get the same status, journal the same
// record (every field but the body size, including the folded prefix),
// bump the same refusal counter, and leave the sink's counters identical
// — and the round then completes (or fails) the same way. The journal
// passes the offline checker every time.
func TestRefusalParity(t *testing.T) {
	all := []int{0, 1, 2, 3}
	cases := []struct {
		name   string
		status int
		reason string
		msg    string // wire-independent fragment of the error message
		folded int    // reports of the refused batch that folded first
		tune   func(*Backend)
		// attack posts the hostile batch on the open round r.ri and says
		// which users the round still awaits afterwards.
		attack   func(r *refusalRig) (status int, msg string, awaited []int)
		roundErr string // fragment of the round's failure; "" when it completes
		jsonOnly bool   // the binary framing cannot express the attack
	}{
		{name: "malformed", status: http.StatusBadRequest, reason: history.ReasonMalformed, msg: "malformed",
			attack: func(r *refusalRig) (int, string, []int) {
				status, msg := r.postRaw([]byte("{not a batch on either wire"))
				return status, msg, all
			}},
		{name: "body-too-large", status: http.StatusRequestEntityTooLarge, reason: history.ReasonBodyTooLarge, msg: "exceeds 256 bytes",
			tune: func(b *Backend) { b.MaxBody = 256 },
			attack: func(r *refusalRig) (int, string, []int) {
				status, msg := r.post(r.batch(make([]int, 40)...))
				return status, msg, all
			}},
		{name: "batch-too-large", status: http.StatusRequestEntityTooLarge, reason: history.ReasonBatchTooLarge, msg: "exceeds the maximum of 3",
			tune: func(b *Backend) { b.MaxBatch = 3 },
			attack: func(r *refusalRig) (int, string, []int) {
				status, msg := r.post(r.batch(all...))
				return status, msg, all
			}},
		{name: "stale-token/forged", status: http.StatusConflict, reason: history.ReasonStaleToken, msg: "stale round token",
			attack: func(r *refusalRig) (int, string, []int) {
				b := r.batch(0)
				b.Token = "deadbeef"
				status, msg := r.post(b)
				return status, msg, all
			}},
		{name: "stale-token/replay-into-next-round", status: http.StatusConflict, reason: history.ReasonStaleToken, msg: "stale round token",
			attack: func(r *refusalRig) (int, string, []int) {
				captured := r.batch(0)
				if err := r.finish(all...); err != nil {
					r.t.Fatal(err)
				}
				r.open(2)
				if r.ri.Token == captured.Token {
					r.t.Fatal("round tokens repeat")
				}
				status, msg := r.post(captured)
				return status, msg, all
			}},
		{name: "stale-token/replay-with-no-round-open", status: http.StatusConflict, reason: history.ReasonStaleToken, msg: "stale round token",
			attack: func(r *refusalRig) (int, string, []int) {
				captured := r.batch(0)
				if err := r.finish(all...); err != nil {
					r.t.Fatal(err)
				}
				status, msg := r.post(captured)
				return status, msg, nil
			}},
		{name: "round-closed", status: http.StatusConflict, reason: history.ReasonRoundClosed, msg: "already closed",
			roundErr: "closed under the post",
			attack: func(r *refusalRig) (int, string, []int) {
				// Hold a fold slot so Collect cannot retire the round, close
				// it, and post into the window where the round is still
				// current but already done.
				rd, _ := r.backend.rounds.Current()
				if err := rd.beginFold(); err != nil {
					r.t.Fatal(err)
				}
				rd.Finish(errors.New("test: closed under the post"))
				status, msg := r.post(r.batch(0))
				rd.endFold()
				return status, msg, nil
			}},
		{name: "bad-report/mid-batch", status: http.StatusUnprocessableEntity, reason: history.ReasonBadReport, msg: "numeric report", folded: 1,
			attack: func(r *refusalRig) (int, string, []int) {
				b := r.batch(0, 1, 2)
				b.Reports[1] = encodeContribution(1, collect.Contribution{Numeric: true, Value: 0.5})
				status, msg := r.post(b)
				return status, msg, []int{1, 2, 3}
			}},
		{name: "bad-report/unknown-kind", status: http.StatusUnprocessableEntity, reason: history.ReasonBadReport, msg: "unknown report kind", folded: 1,
			jsonOnly: true,
			attack: func(r *refusalRig) (int, string, []int) {
				status, msg := r.postRaw([]byte(fmt.Sprintf(
					`{"round":%d,"token":%q,"reports":[{"user":0,"kind":"value"},{"user":1,"kind":"wat"}]}`, r.ri.Round, r.ri.Token)))
				return status, msg, []int{1, 2, 3}
			}},
		{name: "bad-report/sink-rejects", status: http.StatusUnprocessableEntity, reason: history.ReasonBadReport, msg: "outside domain", folded: 1,
			roundErr: "user 1",
			attack: func(r *refusalRig) (int, string, []int) {
				b := r.batch(0, 1, 2)
				b.Reports[1].Value = refusalDomain + 5
				status, msg := r.post(b)
				return status, msg, nil
			}},
		{name: "not-awaited/mid-batch", status: http.StatusConflict, reason: history.ReasonNotAwaited, msg: "not awaited", folded: 1,
			attack: func(r *refusalRig) (int, string, []int) {
				status, msg := r.post(r.batch(2, 2, 3))
				return status, msg, []int{0, 1, 3}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run := func(wire Wire) refusalOutcome {
				r := newRefusalRig(t, wire)
				if tc.tune != nil {
					tc.tune(r.backend)
				}
				r.open(1)
				status, msg, awaited := tc.attack(r)
				if !strings.Contains(msg, tc.msg) {
					t.Errorf("%s wire: error message %q does not mention %q", wire, msg, tc.msg)
				}
				out := refusalOutcome{status: status}
				if r.ri != nil {
					if err := r.finish(awaited...); err != nil {
						out.roundErr = err.Error()
					}
				}
				if !strings.Contains(out.roundErr, tc.roundErr) || (tc.roundErr == "") != (out.roundErr == "") {
					t.Errorf("%s wire: round ended with %q, want %q", wire, out.roundErr, tc.roundErr)
				}
				if err := r.hist.Close(); err != nil {
					t.Fatal(err)
				}
				recs, err := history.ReadAll(r.logPath)
				if err != nil {
					t.Fatal(err)
				}
				if res := history.Check(recs); !res.OK() {
					t.Errorf("%s wire: history fails the checker: %q", wire, res.Violations)
				}
				refused := 0
				for _, rec := range recs {
					if rec.Kind == history.KindBatch && rec.Verdict == history.VerdictRefused {
						refused++
						out.record = rec
					}
				}
				if refused != 1 {
					t.Fatalf("%s wire: %d refusals journaled, want exactly the attack's", wire, refused)
				}
				if out.record.Bytes == 0 {
					t.Errorf("%s wire: the refusal record carries no body size", wire)
				}
				out.record.Bytes = 0
				reg := r.backend.Metrics.Registry()
				out.refusals, _ = reg.Value("ldpids_gateway_refusals_total", tc.reason)
				out.folded, _ = reg.Value("ldpids_gateway_reports_folded_total")
				if out.counters, err = collect.SinkCounters(r.sink); err != nil {
					t.Fatal(err)
				}
				return out
			}

			got := run(WireJSON)
			rec := got.record
			if got.status != tc.status || rec.Status != tc.status || rec.Reason != tc.reason {
				t.Errorf("answered %d and journaled status %d reason %q, want %d %q", got.status, rec.Status, rec.Reason, tc.status, tc.reason)
			}
			if rec.Folded != tc.folded || len(rec.Reports) != tc.folded {
				t.Errorf("journaled folded=%d with %d reports, want the %d-report folded prefix", rec.Folded, len(rec.Reports), tc.folded)
			}
			if got.refusals != 1 {
				t.Errorf("refusals{reason=%q} = %v, want 1", tc.reason, got.refusals)
			}
			if tc.jsonOnly {
				return
			}
			if bin := run(WireBinary); !reflect.DeepEqual(got, bin) {
				t.Errorf("the wires disagree:\n   json: %+v\n binary: %+v", got, bin)
			}
		})
	}
}
