package cluster

import (
	"bytes"
	"net/http"
	"path/filepath"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// TestCoordinatorHistoryAudited drives one cluster round with hostile
// shipments mixed in — a forged token and a duplicate frame — and
// proves the coordinator's ingest history journals every verdict and
// passes the offline checker: accepted shards partition the population,
// re-merging them reproduces the closing counters, and the refused
// shipments influenced nothing.
func TestCoordinatorHistoryAudited(t *testing.T) {
	const n, d, eps = 6, 4, 1.0
	c, ts := testCoordinator(t, n, "GRR", d)
	logPath := filepath.Join(t.TempDir(), "coord.jsonl")
	hist, err := history.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	hist.Append(history.Record{Kind: history.KindConfig, Source: "coordinator",
		N: n, D: d, Oracle: "GRR"})
	c.History = hist

	oracle, err := fo.New("GRR", d)
	if err != nil {
		t.Fatal(err)
	}
	a := joinFake(t, ts.URL, "rep-a", 0, 3, n)
	b := joinFake(t, ts.URL, "rep-b", 3, n, n)

	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()

	ann := a.pollRound(0)
	forged := *ann
	forged.Token = "forged-token"
	if status := a.ship(&forged, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusConflict {
		t.Fatalf("forged-token shipment answered %d, want 409", status)
	}
	if status := a.ship(ann, shardFrame(t, oracle, eps, 0, 3), ""); status != http.StatusOK {
		t.Fatalf("honest shipment answered %d", status)
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
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := history.ReadAll(logPath)
	if err != nil {
		t.Fatal(err)
	}
	res := history.Check(recs)
	if !res.OK() {
		t.Fatalf("coordinator history must pass the checker, got %q", res.Violations)
	}
	s := res.Summary
	if s.Rounds != 1 || s.OKRounds != 1 || s.AcceptedFrames != 2 || s.RefusedFrames != 2 {
		t.Fatalf("summary miscounts the round: %+v", s)
	}
	if s.Refusals[history.ReasonStaleToken] != 1 || s.Refusals[history.ReasonDuplicate] != 1 {
		t.Fatalf("refusal reasons = %v, want one stale-token and one duplicate", s.Refusals)
	}

	// Tampering with either accepted frame must break the re-merge proof.
	for i := range recs {
		if recs[i].Kind == history.KindFrame && recs[i].Verdict == history.VerdictAccepted {
			recs[i].Frame.Counts[0]++
			break
		}
	}
	if history.Check(recs).OK() {
		t.Fatal("tampered frame must fail the checker")
	}
}

// TestCoordinatorHistoryFailedRound proves a replica-reported failure is
// journaled as a failed frame before the failed close, and the history
// still passes (a failed round makes no counter claims).
func TestCoordinatorHistoryFailedRound(t *testing.T) {
	const n, d, eps = 6, 4, 1.0
	c, ts := testCoordinator(t, n, "GRR", d)
	logPath := filepath.Join(t.TempDir(), "coord.jsonl")
	hist, err := history.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	hist.Append(history.Record{Kind: history.KindConfig, Source: "coordinator",
		N: n, D: d, Oracle: "GRR"})
	c.History = hist

	a := joinFake(t, ts.URL, "rep-a", 0, 3, n)
	joinFake(t, ts.URL, "rep-b", 3, n, n)

	oracle, err := fo.New("GRR", d)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()
	ann := a.pollRound(0)
	if status := a.ship(ann, fo.CounterFrame{}, "shard exploded"); status != http.StatusOK {
		t.Fatalf("failure shipment answered %d", status)
	}
	if err := <-done; err == nil {
		t.Fatal("replica failure must fail the round")
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := history.ReadAll(logPath)
	if err != nil {
		t.Fatal(err)
	}
	res := history.Check(recs)
	if !res.OK() {
		t.Fatalf("failed-round history must pass the checker, got %q", res.Violations)
	}
	if res.Summary.FailedFrames != 1 || res.Summary.OKRounds != 0 {
		t.Fatalf("summary = %+v, want one failed frame and no ok rounds", res.Summary)
	}
	// Ordering: the failed frame precedes its round's close record.
	frameAt, closeAt := -1, -1
	for i, rec := range recs {
		switch rec.Kind {
		case history.KindFrame:
			frameAt = i
		case history.KindClose:
			closeAt = i
		}
	}
	if frameAt < 0 || closeAt < 0 || frameAt > closeAt {
		t.Fatalf("failed frame at %d must precede close at %d", frameAt, closeAt)
	}
}

// TestCoordinatorRefusesBadShipments: a participant holding the round's
// real token still cannot get a bad frame — an unknown shape, a negative
// counter — or a structurally broken body past the handler. Each is
// refused with its own status and journaled reason, none is buffered (the
// honest frame that follows is not a duplicate), and the round closes on
// exactly the honest counters: the checker re-merges the accepted frames
// and finds the close record's.
func TestCoordinatorRefusesBadShipments(t *testing.T) {
	const n, d, eps = 6, 4, 1.0
	c, ts := testCoordinator(t, n, "GRR", d)
	logPath := filepath.Join(t.TempDir(), "coord.jsonl")
	hist, err := history.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	hist.Append(history.Record{Kind: history.KindConfig, Source: "coordinator",
		N: n, D: d, Oracle: "GRR"})
	c.History = hist

	oracle, err := fo.New("GRR", d)
	if err != nil {
		t.Fatal(err)
	}
	a := joinFake(t, ts.URL, "rep-a", 0, 3, n)
	b := joinFake(t, ts.URL, "rep-b", 3, n, n)
	agg, err := oracle.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Collect(collect.Request{T: 1, Eps: eps}, collect.AggregatorSink{Agg: agg}) }()
	ann := a.pollRound(0)

	honestA, honestB := shardFrame(t, oracle, eps, 0, 3), shardFrame(t, oracle, eps, 3, n)
	badShape := honestA
	badShape.Shape = fo.FrameShape(9)
	negative := fo.CounterFrame{Shape: fo.FrameCounts, N: honestA.N, Counts: append([]int64(nil), honestA.Counts...)}
	negative.Counts[0] = -1000
	for name, frame := range map[string]fo.CounterFrame{"unknown shape": badShape, "negative counter": negative} {
		if status := a.ship(ann, frame, ""); status != http.StatusUnprocessableEntity {
			t.Fatalf("%s answered %d, want 422", name, status)
		}
	}

	sh := shipment{Round: ann.Round, Token: []byte(ann.Token), Replica: a.id, Frame: honestA}
	if err := sh.encode(); err != nil {
		t.Fatal(err)
	}
	wrongVersion := append([]byte(nil), sh.body...)
	wrongVersion[len(shipmentMagic)-1]++
	for name, body := range map[string][]byte{
		"garbage":       []byte("not a shipment at all, just bytes"),
		"wrong version": wrongVersion,
		"cut short":     sh.body[:len(sh.body)-1],
		"trailing byte": append(append([]byte(nil), sh.body...), 0),
		"header only":   sh.body[:shipmentHeader+len(ann.Token)],
	} {
		resp, err := http.Post(ts.URL+"/cluster/v1/counters", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s body answered %d, want 400", name, resp.StatusCode)
		}
	}

	if status := a.ship(ann, honestA, ""); status != http.StatusOK {
		t.Fatalf("honest shipment after the refusals answered %d", status)
	}
	if status := b.ship(ann, honestB, ""); status != http.StatusOK {
		t.Fatalf("second shipment answered %d", status)
	}
	if err := <-done; err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	// The frame-bytes counter reports what crossed the wire for the two
	// merged shipments: their encoded frames plus one envelope each.
	envelope := shipmentHeader + len(ann.Token)
	if got, want := c.Metrics.value("ldpids_cluster_frame_bytes_total"), int64(honestA.WireSize()+honestB.WireSize()+2*envelope); got != want {
		t.Fatalf("frame bytes counter = %d, want the encoded %d", got, want)
	}

	recs, err := history.ReadAll(logPath)
	if err != nil {
		t.Fatal(err)
	}
	res := history.Check(recs)
	if !res.OK() {
		t.Fatalf("coordinator history must pass the checker, got %q", res.Violations)
	}
	s := res.Summary
	if s.OKRounds != 1 || s.AcceptedFrames != 2 || s.RefusedFrames != 7 {
		t.Fatalf("summary miscounts the round: %+v", s)
	}
	if s.Refusals[history.ReasonBadFrame] != 2 || s.Refusals[history.ReasonMalformed] != 5 {
		t.Fatalf("refusal reasons = %v, want two bad-frame and five malformed", s.Refusals)
	}
}
