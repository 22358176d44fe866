package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
)

// errRejoin signals that the replica's registration lapsed (heartbeat or
// poll answered 404) and the serve loop must join again.
var errRejoin = errors.New("cluster: registration lapsed")

// Replica runs one ingestion shard: it registers with the coordinator,
// long-polls for rounds, re-announces each round to its own device
// clients through the wrapped serve.Backend, folds their reports into
// local aggregator stripes, and ships the merged integer counters back.
//
// Run loops until the context is cancelled (it then finishes any in-flight
// round, ships its counters, and leaves gracefully — a departing shard's
// data is merged, never dropped), the coordinator closes, or the retry
// budget is exhausted against an unreachable coordinator.
type Replica struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:7900").
	Coordinator string
	// Name identifies the replica across restarts: a re-join under the
	// same name replaces the previous registration.
	Name string
	// Lo and Hi bound the contiguous user range [Lo, Hi) this replica
	// ingests for.
	Lo, Hi int
	// Backend is the HTTP ingestion backend devices report to. Its
	// population must equal the coordinator's.
	Backend *serve.Backend
	// Wire declares the encoding this shard's device clients post with
	// (serve.WireJSON or serve.WireBinary); Run applies it to the
	// Backend's byte accounting. The backend accepts both encodings per
	// POST regardless.
	Wire serve.Wire
	// Retry schedules delays between retries of transient coordinator
	// failures. Nil selects a default Backoff seeded from Name, so two
	// replicas never share a jitter stream.
	Retry *serve.Backoff
	// MaxRetries bounds consecutive transient failures per operation.
	// Zero selects serve.DefaultMaxRetries.
	MaxRetries int
	// PollWait is the long-poll parking time per round poll. Zero
	// selects 10s.
	PollWait time.Duration
	// Metrics, when non-nil, records the replica's ship-stage latency.
	Metrics *Metrics
	// Tracer, when non-nil, records a shard-round span per served round
	// and a ship span per counter shipment, parented under the
	// coordinator's root span from the announcement.
	Tracer *obs.Tracer
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// OnJoin, when non-nil, is called once, with the oracle and domain of
	// the first join response, before the first round is served: they are
	// what the shard folds with, whatever the replica was started with. A
	// later join that names another oracle or domain stops Run.
	OnJoin func(oracle string, d int)

	hc *http.Client
	// sh is the one shipment the serve → ship loop fills every round: its
	// counter storage and encode buffer are reused across rounds.
	sh shipment
	// agg is the one round aggregator the shard folds into, built for
	// oracle aggFor and re-armed (fo.Reset) every round after: Backend.Collect
	// drains every fold before returning, and the counters are exported into
	// sh before the next round opens.
	agg    *fo.StripedAggregator
	aggFor fo.Oracle
	// joined is the first join response, whose oracle and domain every
	// later join must repeat.
	joined *joinResponse
}

// logf emits one operational log line when a logger is attached.
func (r *Replica) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// budget starts a retry budget for one operation on the replica's
// schedule, applying the defaults.
func (r *Replica) budget(ctx context.Context, what string) serve.Budget {
	if r.Retry == nil {
		h := fnv.New64a()
		_, _ = io.WriteString(h, r.Name)
		r.Retry = serve.NewBackoff(0, 0, h.Sum64()^0x636c7573746572)
	}
	return serve.NewBudget(ctx, r.Retry, r.MaxRetries, what)
}

// Run registers the replica and serves rounds until ctx is cancelled
// (returns nil after a graceful leave), the coordinator closes (nil), or
// the coordinator stays unreachable past the retry budget (the last
// transport error).
func (r *Replica) Run(ctx context.Context) error {
	if r.Backend == nil {
		return errors.New("cluster: replica needs a Backend")
	}
	if r.Coordinator == "" {
		return errors.New("cluster: replica needs a coordinator URL")
	}
	if r.Name == "" {
		return errors.New("cluster: replica needs a name")
	}
	if r.Lo < 0 || r.Hi <= r.Lo || r.Hi > r.Backend.N() {
		return fmt.Errorf("cluster: shard [%d:%d) is not a sub-range of [0:%d)", r.Lo, r.Hi, r.Backend.N())
	}
	if r.hc == nil {
		r.hc = &http.Client{}
	}
	if r.Wire != "" {
		r.Backend.Wire = r.Wire
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		jr, err := r.join(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		r.logf("cluster: replica %s joined as id %d, shard [%d:%d)", r.Name, jr.Replica, r.Lo, r.Hi)
		err = r.serveRounds(ctx, jr)
		if errors.Is(err, errRejoin) {
			r.logf("cluster: replica %s registration lapsed, re-joining", r.Name)
			continue
		}
		return err
	}
}

// join registers with the coordinator, retrying transient failures — the
// coordinator may simply not be up yet.
func (r *Replica) join(ctx context.Context) (*joinResponse, error) {
	tries := r.budget(ctx, "cluster: joining "+r.Coordinator)
	req, _ := json.Marshal(joinRequest{Name: r.Name, Lo: r.Lo, Hi: r.Hi, N: r.Backend.N()}) // a string and three ints always marshal
	for {
		var jr joinResponse
		status, err := r.post(ctx, "/cluster/v1/join", "application/json", req, &jr)
		if err == nil {
			switch status {
			case http.StatusOK:
				tries.Reset()
				if jr.N != r.Backend.N() {
					return nil, fmt.Errorf("cluster: coordinator population %d, backend hosts %d", jr.N, r.Backend.N())
				}
				if r.joined == nil {
					r.joined = &jr
					if r.OnJoin != nil {
						r.OnJoin(jr.Oracle, jr.D)
					}
				} else if jr.Oracle != r.joined.Oracle || jr.D != r.joined.D {
					r.leave(jr.Replica)
					return nil, fmt.Errorf("cluster: coordinator now folds with %s at d=%d, replica %s joined under %s at d=%d",
						jr.Oracle, jr.D, r.Name, r.joined.Oracle, r.joined.D)
				}
				return &jr, nil
			case http.StatusServiceUnavailable:
				// Starting up or shutting down; retry within the budget.
				err = errors.New("coordinator unavailable")
			default:
				return nil, fmt.Errorf("cluster: join refused with status %d", status)
			}
		}
		if again, gaveUp := tries.Again(err); !again {
			if gaveUp == nil {
				gaveUp = ctx.Err()
			}
			return nil, gaveUp
		}
	}
}

// serveRounds is one registration's round loop: poll, serve, ship.
func (r *Replica) serveRounds(ctx context.Context, jr *joinResponse) error {
	oracle, err := fo.New(jr.Oracle, jr.D)
	if err != nil {
		return fmt.Errorf("cluster: coordinator oracle: %w", err)
	}
	hbStop := make(chan struct{})
	hbLapsed := make(chan struct{})
	go r.heartbeatLoop(jr, hbStop, hbLapsed)
	defer close(hbStop)

	polls := r.budget(ctx, "cluster: polling for rounds")
	endpoint := fmt.Sprintf("%s/cluster/v1/round?replica=%d&", r.Coordinator, jr.Replica)
	var after int64
	for {
		select {
		case <-ctx.Done():
			r.leave(jr.Replica)
			return nil
		case <-hbLapsed:
			return errRejoin
		default:
		}
		ann := new(announcement)
		status, err := serve.LongPoll(ctx, r.hc, endpoint, after, r.PollWait, ann)
		if err == nil && (status == http.StatusBadGateway || status == http.StatusGatewayTimeout) {
			err = fmt.Errorf("last status %d", status)
		}
		if err != nil {
			again, gaveUp := polls.Again(err)
			if again {
				continue
			}
			if gaveUp == nil {
				r.leave(jr.Replica) // cancelled: a graceful departure
			}
			return gaveUp
		}
		polls.Reset()
		switch status {
		case http.StatusOK:
		case http.StatusNoContent:
			continue // long poll expired with no new round
		case http.StatusNotFound:
			return errRejoin
		case http.StatusServiceUnavailable:
			return nil // coordinator closed: the stream is over
		default:
			return fmt.Errorf("cluster: /cluster/v1/round returned status %d", status)
		}
		after = ann.Round
		shardCtx := r.serveRound(jr, oracle, ann)
		if r.sh.Err != "" {
			r.logf("cluster: replica %s: round %d failed locally: %s", r.Name, ann.Round, r.sh.Err)
		}
		shipStart := time.Now()
		ssp := r.Tracer.Start("ship", shardCtx, ann.Round)
		err = r.ship()
		ssp.End(map[string]any{"ok": err == nil, "failed_round": r.sh.Err != ""})
		r.Metrics.observeStage(stageShip, time.Since(shipStart))
		if err != nil {
			if ctx.Err() != nil {
				r.leave(jr.Replica)
				return nil
			}
			return err
		}
	}
}

// serveRound runs one announced round against the local backend and
// fills r.sh with the shipment — the shard's merged counters, or the local
// error — returning the span context the subsequent ship span parents
// under. The (id, token) pair is pinned onto the backend first, so device
// watermarks and report authentication line up with the global sequence;
// the coordinator's trace context is pinned alongside, so the backend's
// round span (and every device batch span under it) joins the
// distributed trace.
func (r *Replica) serveRound(jr *joinResponse, oracle fo.Oracle, ann *announcement) obs.SpanContext {
	parent, _ := obs.ParseSpanContext(ann.Trace)
	sp := r.Tracer.Start("shard-round", parent, ann.Round)
	ctx := sp.ContextOr(parent)
	// Last round's shipment is reset to this round's header and the zero
	// frame (what a failed round ships), keeping its storage.
	sh := &r.sh
	*sh = shipment{Round: ann.Round, Replica: jr.Replica, Token: append(sh.Token[:0], ann.Token...),
		Frame: fo.CounterFrame{Counts: sh.Frame.Counts[:0]}, body: sh.body}
	defer func() { sp.End(map[string]any{"ok": sh.Err == ""}) }()
	fail := func(err error) obs.SpanContext {
		sh.Err = err.Error()
		return ctx
	}
	agg, err := r.roundAggregator(oracle, ann.Eps)
	if err != nil {
		return fail(err)
	}
	users := serve.Hosted(ann.Users, r.Lo, r.Hi)
	if len(users) > 0 {
		if err := r.Backend.SetNextRound(ann.Round, ann.Token); err != nil {
			return fail(err)
		}
		r.Backend.SetNextTrace(ctx)
		if err := r.Backend.Collect(collect.Request{T: ann.T, Users: users, Eps: ann.Eps}, collect.AggregatorSink{Agg: agg}); err != nil {
			return fail(err)
		}
	}
	// An empty intersection still ships: the zero frame carries the
	// oracle shape, and the coordinator counts every shard present.
	if err := fo.ExportCountersInto(agg, &sh.Frame); err != nil {
		return fail(err)
	}
	return ctx
}

// roundAggregator re-arms r.agg for a round at budget eps, building it on
// the first round for this oracle (each registration resolves its own).
func (r *Replica) roundAggregator(oracle fo.Oracle, eps float64) (*fo.StripedAggregator, error) {
	if r.agg != nil && r.aggFor == oracle {
		return r.agg, fo.Reset(r.agg, eps)
	}
	agg, err := fo.NewStripedAggregator(oracle, eps, r.Backend.PreferredStripes())
	if err != nil {
		return nil, err
	}
	r.agg, r.aggFor = agg, oracle
	return agg, nil
}

// heartbeatLoop beats until stop closes; a 404 closes lapsed (the
// registration is gone and the replica must re-join). Transport errors
// are ignored — the TTL gives several beats of slack and the next tick
// retries.
func (r *Replica) heartbeatLoop(jr *joinResponse, stop, lapsed chan struct{}) {
	interval := time.Duration(jr.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	beat, _ := json.Marshal(replicaRef{Replica: jr.Replica}) // a struct of one int64 always marshals
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			status, err := r.post(context.Background(), "/cluster/v1/heartbeat", "application/json", beat, nil)
			if err == nil && status == http.StatusNotFound {
				close(lapsed)
				return
			}
		}
	}
}

// ship encodes r.sh once and posts it, retrying transport errors with the
// same bytes on a background context: a cancelled replica still ships its
// final round, so a graceful departure never drops a shard's data. A 409
// means the round is settled from the coordinator's side (a duplicate
// after a lost ack, or the round already failed) — the shipment's job is
// done either way.
func (r *Replica) ship() error {
	if err := r.sh.encode(); err != nil {
		return fmt.Errorf("cluster: encoding counter shipment: %w", err)
	}
	tries := r.budget(context.Background(), fmt.Sprintf("cluster: shipping counters for round %d", r.sh.Round))
	for {
		status, err := r.post(context.Background(), "/cluster/v1/counters", "application/octet-stream", r.sh.body, nil)
		if err == nil {
			switch status {
			case http.StatusOK, http.StatusConflict:
				tries.Reset()
				return nil
			default:
				return fmt.Errorf("cluster: /cluster/v1/counters returned status %d", status)
			}
		}
		if again, gaveUp := tries.Again(err); !again {
			return gaveUp
		}
	}
}

// leave posts a graceful departure; failures are ignored (the TTL cleans
// up, and the final counters already shipped).
func (r *Replica) leave(id int64) {
	body, _ := json.Marshal(replicaRef{Replica: id}) // a struct of one int64 always marshals
	_, _ = r.post(context.Background(), "/cluster/v1/leave", "application/json", body, nil)
}

// post sends one request body to the coordinator and returns the status,
// decoding a 200 answer's JSON into out when out is non-nil. The rest of
// the answer is drained so the connection is reused.
func (r *Replica) post(ctx context.Context, path, contentType string, body []byte, out any) (int, error) {
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, r.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	answer := io.LimitReader(resp.Body, 1<<20)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(answer).Decode(out); err != nil {
			return 0, fmt.Errorf("cluster: decoding %s response: %w", path, err)
		}
	}
	if _, err := io.Copy(io.Discard, answer); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
