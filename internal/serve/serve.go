// Package serve runs LDP-IDS as a persistent HTTP service: an ingestion
// backend (Backend) that implements collect.Collector over plain HTTP, a
// live query layer (Snapshots) serving the current release and a
// Server-Sent-Events stream of every release, and the gateway's metric
// families on an obs.Registry (Metrics), rendered at /metrics in the
// Prometheus text exposition format. cmd/ldpids-gateway wires the three
// into one long-running aggregator process.
//
// The protocol is poll-and-post. Clients long-poll GET /v1/round for the
// next collection round; the announcement carries the timestamp, budget,
// requested users, and a fresh per-round token. They answer with batched
// POST /v1/report bodies, which concurrent handlers decode and fold — each
// batch into one aggregator stripe of its own (fo.StripedAggregator via
// collect.StripedSink) — so ingestion scales with cores instead of
// serializing through one Absorb loop. A round that has not heard from
// every requested user within Backend.Timeout fails, pruning slow or dead
// clients; reports carrying a completed or timed-out round's token are
// refused (409), so a captured batch cannot be replayed into a later
// round.
//
// The round lifecycle is written once, for every round owner and every
// poller. Server half (lifecycle.go): Rounds is the open-round register —
// Open refuses a closed or busy owner, mints the id and token, journals the
// round record and wakes the parked pollers in one critical section;
// ServePoll is the long-poll handler, asking the owner's Admit callback on
// every wake what this poller may see; Await is the deadline wait; a Latch
// finishes each round exactly once; CloseRecord closes its journal entry.
// Backend owns it by admitting every poller with a RoundInfo and naming the
// users a missed deadline leaves out; cluster.Coordinator owns the same
// lifecycle with two other callbacks. Client half (poll.go): LongPoll is
// the one GET, Budget the one consecutive-failure budget with backoff and
// a context-aware sleep, Hosted the announced users a poller answers for.
// Client, cluster.Replica and the test adversary differ only in which
// outcomes they call transient.
//
// There is one ingest path. The batch encoding is negotiated per POST via
// Content-Type — JSON (the default; bit-packed payloads travel as base64;
// one schema-specific codec in jsonwire.go) or application/x-ldpids-batch
// (ContentTypeBinary), a flat little-endian frame whose packed payloads
// are fo.Report.Packed's bytes as they are (layout in binary.go). Both
// run with zero steady-state allocations (Client encodes contributions
// straight into one reused frame; the handler reads it into pooled
// scratch sized from Content-Length, and the fold reads the payloads where
// they lie), and each wire is only a small decoder.
// Both produce the same canonical batch of history.Report values, and
// everything after that is written once in handleReport: the body and
// batch caps, the constant-time token
// check, the per-user report slots that keep any user from spending more
// than the round's budget, the fold, the journal record (the very values
// that were folded), the stage timers, refusal counters and trace span.
// So the wire choice cannot influence a released bit or a journaled
// byte. Unknown content types are refused with 415 and journaled without
// touching any counter, and Client falls back to JSON for the rest of the
// run after one 415.
//
// Queries never block ingestion: mechanisms publish each release into the
// versioned Snapshots store as the round closes (internal/gateway), and
// GET /v1/estimate / GET /v1/stream read from that store only.
//
// Like every backend, serve passes the collect/collecttest conformance
// suite: identical seeds produce bit-identical released histograms over
// HTTP and the in-process Sim.
package serve

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/obs"
)

// Defaults for Backend knobs.
const (
	// DefaultTimeout bounds one collection round: requested users that
	// have not reported within it are pruned (the round fails).
	DefaultTimeout = 30 * time.Second
	// DefaultMaxBatch caps the reports accepted in one POST /v1/report.
	DefaultMaxBatch = 4096
	// DefaultMaxBody caps the byte size of one request body.
	DefaultMaxBody = 64 << 20
)

// Backend is the HTTP ingestion backend: it implements collect.Collector
// by announcing each collection round to long-polling HTTP clients and
// folding their posted report batches into the round's sink as they
// arrive. Handlers decode and fold concurrently — shard-locally when the
// sink stripes — so ingestion scales with cores.
//
// Mount it on a mux at /v1/round and /v1/report (it routes by path), or
// use it directly as the root handler. Collect must be called serially,
// like every Collector; Close fails the in-flight round and refuses
// further work.
type Backend struct {
	// Timeout bounds each collection round. Zero selects DefaultTimeout.
	Timeout time.Duration
	// MaxBatch caps reports per POST. Zero selects DefaultMaxBatch.
	MaxBatch int
	// MaxBody caps request body bytes. Zero selects DefaultMaxBody.
	MaxBody int64
	// Metrics, when non-nil, counts folded reports, ingested bytes, and
	// round latencies.
	Metrics *Metrics
	// Health, when non-nil, is marked ready when the first round is
	// announced; ServeHTTP also routes GET /v1/healthz to it.
	Health *Health
	// History, when non-nil, receives the structured ingest log: one
	// record per round announcement, accepted or refused report batch,
	// and round close, replayable offline by cmd/ldpids-check. Nil (the
	// default) logs nothing.
	History *history.Log
	// Tracer, when non-nil, records a span per collection round and per
	// accepted report batch to the trace log. Tracing is observe-only:
	// span contexts ride headers and announcements but never touch round
	// state, randomness, or payload bytes.
	Tracer *obs.Tracer
	// Wire declares which report-batch encoding this deployment's clients
	// post (the server itself accepts both on every POST, negotiating per
	// batch by Content-Type): it selects the per-report framing constant
	// FrameOverhead bills, so communication totals stay comparable across
	// JSON and binary runs. Empty selects WireJSON.
	Wire Wire

	n int

	rounds   *Rounds[round]  // the open-round register (lifecycle.go); its lock guards pinTrace too
	pinTrace obs.SpanContext // next round's parent span, pinned via SetNextTrace
}

// NewBackend returns an ingestion backend for a population of n users.
func NewBackend(n int) (*Backend, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: population must be positive, got %d", n)
	}
	return &Backend{n: n, rounds: NewRounds[round]("serve", "backend")}, nil
}

// N implements collect.Collector.
func (b *Backend) N() int { return b.n }

// PreferredStripes implements collect.Striper: one stripe per CPU, since
// report batches decode and fold on concurrent handler goroutines.
func (b *Backend) PreferredStripes() int { return runtime.GOMAXPROCS(0) }

// binaryFrameOverhead approximates the envelope bytes the binary batch
// framing adds per report: user id (4), kind tag (1), and length or value
// field (4), with the per-batch header amortizing to ~0 across a batch.
const binaryFrameOverhead = 9

// FrameOverhead implements collect.Framed, billing the declared Wire's
// per-report framing: the JSON envelope — keys, punctuation, user id,
// token share, plus the 4/3 base64 inflation of binary payloads — or the
// binary framing's flat envelope bytes.
func (b *Backend) FrameOverhead(payload int) int {
	if b.Wire == WireBinary {
		return binaryFrameOverhead
	}
	return payload/3 + 48
}

// round is one in-flight collection round.
type round struct {
	id    int64
	token string
	t     int
	eps   float64
	users []int // as announced; nil means all

	sink    collect.Sink
	striped collect.StripedSink // non-nil when folding shard-locally
	stripes int
	batches atomic.Uint32 // batches folded so far; deals them round-robin onto stripes
	foldMu  sync.Mutex    // serializes Absorb on non-striped sinks

	span  *obs.Span       // the round's trace span; nil when tracing is off
	trace obs.SpanContext // announced to clients so batch spans join the trace

	// The latch's lock also guards the report slots below, so claiming a
	// slot and refusing a finished round are one critical section.
	*Latch
	total     int            // requested report count (with multiplicity)
	pending   map[int]int    // outstanding report count per requested user
	remaining int            // reports still to fold
	folders   sync.WaitGroup // in-flight handler folds
}

// newRound builds the round bookkeeping for a validated request.
func newRound(id int64, token string, req collect.Request, n int, sink collect.Sink) *round {
	rd := &round{
		id:    id,
		token: token,
		t:     req.T,
		eps:   req.Eps,
		users: req.Users,
		sink:  sink,
		Latch: NewLatch(),
	}
	if ss, ok := sink.(collect.StripedSink); ok {
		if k := ss.Stripes(); k > 1 {
			rd.striped, rd.stripes = ss, k
		}
	}
	// A user listed several times owes that many reports, matching the
	// reference backend's request-order semantics.
	if req.Users == nil {
		rd.pending = make(map[int]int, n)
		for u := 0; u < n; u++ {
			rd.pending[u] = 1
		}
		rd.total = n
	} else {
		rd.pending = make(map[int]int, len(req.Users))
		for _, u := range req.Users {
			rd.pending[u]++
		}
		rd.total = len(req.Users)
	}
	rd.remaining = rd.total
	return rd
}

// beginFold admits one handler into the round's fold section; it fails on
// rounds that already finished. endFold must follow.
func (r *round) beginFold() error {
	r.Lock()
	defer r.Unlock()
	if r.DoneLocked() {
		return errors.New("serve: round already closed")
	}
	r.folders.Add(1)
	return nil
}

func (r *round) endFold() { r.folders.Done() }

// take claims one of user u's report slots: each requested user reports
// exactly as many times as the round listed them.
func (r *round) take(u int) error {
	r.Lock()
	defer r.Unlock()
	if r.DoneLocked() {
		return errors.New("serve: round already closed")
	}
	if r.pending[u] == 0 {
		return fmt.Errorf("serve: user %d not awaited this round (not requested, or already reported)", u)
	}
	r.pending[u]--
	if r.pending[u] == 0 {
		delete(r.pending, u)
	}
	return nil
}

// untake gives back the slot take claimed for a report the sink then
// refused, so the user's honest retry still folds.
func (r *round) untake(u int) {
	r.Lock()
	defer r.Unlock()
	r.pending[u]++
}

// folded records one successfully folded report, finishing the round when
// it was the last one.
func (r *round) folded() {
	r.Lock()
	r.remaining--
	last := r.remaining == 0
	r.Unlock()
	if last {
		r.Finish(nil)
	}
}

// missing reports how many of the round's requested reports have not
// arrived yet.
func (r *round) missing() (missing, requested int) {
	r.Lock()
	defer r.Unlock()
	for _, k := range r.pending {
		missing += k
	}
	return missing, r.total
}

// fold absorbs one report: shard-locally into its batch's stripe when the
// sink supports it, else serialized under foldMu.
func (r *round) fold(stripe int, fr fo.Report) error {
	if r.striped != nil {
		return r.striped.AbsorbStripe(stripe, fr)
	}
	r.foldMu.Lock()
	defer r.foldMu.Unlock()
	return r.sink.Absorb(fr)
}

// Collect implements collect.Collector: it opens a round, announces it to
// long-polling clients, and waits until every requested user's batch has
// been folded — or the deadline prunes the stragglers, or the backend
// closes mid-round. In-flight handler folds are drained before Collect
// returns, so the caller may use the sink immediately.
func (b *Backend) Collect(req collect.Request, sink collect.Sink) error {
	if err := req.Validate(b.n); err != nil {
		return err
	}
	rd, err := b.rounds.Open(req, b.History, func(id int64, token string) *round {
		parent := b.pinTrace
		b.pinTrace = obs.SpanContext{}
		rd := newRound(id, token, req, b.n, sink)
		// The round span (and the context it announces) exists before any
		// client can see the round, so every batch span can join its trace.
		rd.span = b.Tracer.Start("round", parent, id)
		rd.trace = rd.span.ContextOr(parent)
		return rd
	})
	if err != nil {
		return err
	}
	b.Health.MarkReady()

	start := time.Now()
	if rd.total == 0 {
		rd.Finish(nil) // empty round: nothing to wait for
	}
	timeout := b.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	b.rounds.Await(rd.Latch, timeout, func() error {
		missing, requested := rd.missing()
		return fmt.Errorf("serve: round t=%d timed out after %v: %d/%d users did not report",
			req.T, timeout, missing, requested)
	}, 0, nil)
	rd.folders.Wait() // no fold may still touch the sink after we return
	b.rounds.End()

	err = rd.Err()
	// The close record lands after folders.Wait, so every accepted-batch
	// record (appended inside its fold section) precedes it in the log.
	if b.History != nil {
		b.History.Append(CloseRecord(rd.id, req, err, sink))
	}
	b.Metrics.observeRound(time.Since(start), err == nil)
	rd.span.End(map[string]any{"t": rd.t, "ok": err == nil})
	return err
}

// SetNextRound pins the id and token the next Collect announces, instead
// of the backend's own sequence. Cluster replicas use it to announce the
// coordinator's global round ids: device clients track rounds by a
// monotonically increasing watermark, so a replica that restarts (and
// would otherwise reset to id 1) must announce ids from the sequence the
// clients already saw, and reports must authenticate against the
// coordinator-minted token for exactly that round. The id must exceed
// every id this backend announced before; the token must be non-empty.
func (b *Backend) SetNextRound(id int64, token string) error { return b.rounds.Pin(id, token) }

// SetNextTrace pins the parent span context the next Collect's round
// span joins, letting a cluster replica parent its rounds under the
// coordinator's trace. Like SetNextRound it applies to exactly one
// round; unlike it, pinning during an in-flight round is not an error —
// the context simply applies to the round after.
func (b *Backend) SetNextTrace(parent obs.SpanContext) {
	b.rounds.Lock()
	defer b.rounds.Unlock()
	b.pinTrace = parent
}

// Close fails any in-flight round and refuses further rounds and requests.
// Shutting down the surrounding http.Server is the caller's job.
func (b *Backend) Close() error { return b.rounds.Close() }

// ---------------------------------------------------------------------------
// HTTP handlers.
// ---------------------------------------------------------------------------

// ServeHTTP implements http.Handler, routing /v1/round and /v1/report.
func (b *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/round":
		b.handleRound(w, r)
	case "/v1/report":
		b.handleReport(w, r)
	case "/v1/healthz":
		b.Health.ServeHTTP(w, r)
	default:
		HTTPError(w, http.StatusNotFound, "serve: unknown path %s", r.URL.Path)
	}
}

// handleRound serves GET /v1/round?after=ID&wait=DURATION (Rounds.ServePoll):
// every poller is admitted to the open round.
func (b *Backend) handleRound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "serve: %s /v1/round", r.Method)
		return
	}
	b.rounds.ServePoll(w, r, func(rd *round) (any, int, error) {
		if rd == nil {
			return nil, 0, nil
		}
		return RoundInfo{
			Round: rd.id, T: rd.t, Eps: rd.eps,
			Token: rd.token, Users: rd.users, N: b.n,
			Trace: rd.trace.String(),
		}, 0, nil
	})
}

// refusal is why a batch — or the rest of it, after a folded prefix — was
// turned away: the HTTP status answered, the machine-readable journal and
// metrics reason, and the message.
type refusal struct {
	status int
	reason string
	err    error
}

// handleReport serves POST /v1/report, the one ingest pipeline both wires
// feed and the one place the per-round budget is enforced: body cap →
// decode (by Content-Type) → batch cap → constant-time token check →
// beginFold → the take/fold loop → journal → metrics and span → ack.
// Unknown content types are refused with 415 before the body is read;
// clients advertising the binary wire fall back to JSON on seeing it.
//
// On both wires the decode and fold steps do not allocate in steady state
// (TestBinaryDecodeFoldAllocs, TestJSONDecodeFoldAllocs): the body lands
// in a pooled frame buffer sized from Content-Length (ReadFrame), the
// reports parsed out of it alias that buffer — or, for the JSON wire's
// escaped strings and base64 payloads, a pooled arena — and packed
// payloads decode into a pooled word buffer that goes straight to the
// sink. The JSON decoder accepts what json.Unmarshal accepts into the
// batch, except bytes after it (jsonwire.go).
func (b *Backend) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "serve: %s /v1/report", r.Method)
		return
	}
	if _, err := b.rounds.Current(); err != nil {
		HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	maxBody, maxBatch := b.MaxBody, b.MaxBatch
	if maxBody == 0 {
		maxBody = DefaultMaxBody
	}
	limit := maxBody // what the body may hold at most: ReadFrame's sizing hint
	if r.ContentLength >= 0 {
		limit = min(limit, r.ContentLength)
	}
	if maxBatch == 0 {
		maxBatch = DefaultMaxBatch
	}
	var (
		body  = &countingReader{inner: http.MaxBytesReader(w, r.Body, maxBody)}
		wire  Wire
		batch wireBatch
		sp    *obs.Span
	)
	// refuse journals the batch verdict — including the prefix of reports
	// already folded when a mid-batch failure refuses the rest — counts it,
	// and answers the error. It runs before the handler returns, so a
	// refusal that folded reports is journaled before the deferred endFold
	// lets the round close.
	refuse := func(folded int, ref refusal) {
		if b.History != nil {
			b.History.Append(history.Record{Kind: history.KindBatch, Verdict: history.VerdictRefused,
				Reason: ref.reason, Status: ref.status, Round: batch.round, Token: string(batch.token),
				Reports: batch.reports[:folded], Folded: folded, Bytes: body.n})
		}
		b.Metrics.addRefusal(ref.reason)
		sp.End(map[string]any{"wire": string(wire), "refused": ref.reason})
		HTTPError(w, ref.status, "%v", ref.err)
	}
	switch ct := mediaType(r.Header.Get("Content-Type")); ct {
	case "", ContentTypeJSON:
		wire = WireJSON
	case ContentTypeBinary:
		wire = WireBinary
	default:
		refuse(0, refusal{http.StatusUnsupportedMediaType, history.ReasonUnsupportedWire,
			fmt.Errorf("serve: unsupported report content type %q (want %s or %s)", ct, ContentTypeJSON, ContentTypeBinary)})
		return
	}
	traceParent, _ := obs.ParseSpanContext(r.Header.Get(obs.TraceHeader))
	sp = b.Tracer.Start("batch", traceParent, 0)
	scratch := scratchPool.Get().(*ingestScratch)
	defer scratchPool.Put(scratch)

	decodeStart := time.Now()
	var err error
	if wire == WireBinary {
		batch, err = decodeBinary(body, limit, maxBatch, scratch)
	} else {
		batch, err = decodeJSON(body, limit, maxBatch, scratch)
	}
	if err != nil {
		ref := refusal{http.StatusBadRequest, history.ReasonMalformed, fmt.Errorf("serve: malformed report batch: %w", err)}
		var bodyTooLarge *http.MaxBytesError
		var batchTooLarge batchTooLargeError
		if errors.As(err, &bodyTooLarge) {
			ref = refusal{http.StatusRequestEntityTooLarge, history.ReasonBodyTooLarge, fmt.Errorf("serve: request body exceeds %d bytes", maxBody)}
		} else if errors.As(err, &batchTooLarge) {
			ref = refusal{http.StatusRequestEntityTooLarge, history.ReasonBatchTooLarge, err}
		}
		refuse(0, ref)
		return
	}
	b.Metrics.observeStage(stageDecode, wire, time.Since(decodeStart))

	rd, _ := b.rounds.Current()
	// The conversion does not allocate: ConstantTimeCompare keeps neither
	// argument, and round tokens fit the compiler's stack buffer.
	if rd == nil || batch.round != rd.id || subtle.ConstantTimeCompare(batch.token, []byte(rd.token)) != 1 {
		refuse(0, refusal{http.StatusConflict, history.ReasonStaleToken,
			fmt.Errorf("serve: stale round token (round %d is not open)", batch.round)})
		return
	}
	if err := rd.beginFold(); err != nil {
		refuse(0, refusal{http.StatusConflict, history.ReasonRoundClosed,
			fmt.Errorf("serve: stale round token (round %d already closed)", batch.round)})
		return
	}
	defer rd.endFold()
	sp.SetRound(rd.id)
	if !traceParent.Valid() {
		// No header (e.g. a hand-rolled client): parent the batch span
		// under the round span so the trace stays connected.
		sp.SetParent(rd.trace)
	}

	foldStart := time.Now()
	if folded, ref := rd.foldBatch(batch.reports, b.Metrics); ref.err != nil {
		refuse(folded, ref)
		return
	}
	b.Metrics.observeStage(stageFold, wire, time.Since(foldStart))
	n := len(batch.reports)
	if b.History != nil {
		journalStart := time.Now()
		b.History.Append(history.Record{Kind: history.KindBatch, Verdict: history.VerdictAccepted,
			Status: http.StatusOK, Round: batch.round, Token: string(batch.token),
			Reports: batch.reports, Folded: n, Bytes: body.n})
		b.Metrics.observeStage(stageJournal, wire, time.Since(journalStart))
	}
	b.Metrics.addBytes(body.n)
	b.Metrics.observeBatch(wire, n, body.n)
	sp.End(map[string]any{"wire": string(wire), "reports": n, "bytes": body.n})
	WriteJSON(w, reportAck{Accepted: n})
}

// foldBatch runs reports through the round in order — decode, claim the
// user's report slot, fold — and returns how many folded and, when that is
// not all of them, why the rest were refused. The whole batch folds into
// one stripe, dealt round-robin per batch, so concurrent handlers each keep
// a stripe's buffers and lock on their own core instead of trading both
// stripes per report; integer addition commutes, so which stripe a report
// lands in reaches no released bit. Payloads alias the request's memory
// only when the round folds through fo's striped counters: any other sink
// may retain the payload slices it is handed, so those rounds get copies.
func (r *round) foldBatch(reports []history.Report, m *Metrics) (int, refusal) {
	stripe, alias := 0, r.striped != nil
	if alias {
		stripe = int(r.batches.Add(1) % uint32(r.stripes))
	}
	for i, hr := range reports {
		fr, err := hr.Decode(alias)
		if err != nil {
			return i, refusal{http.StatusUnprocessableEntity, history.ReasonBadReport, fmt.Errorf("serve: user %d: %w", hr.User, err)}
		}
		if err := r.take(hr.User); err != nil {
			return i, refusal{http.StatusConflict, history.ReasonNotAwaited, err}
		}
		if err := r.fold(stripe, fr); err != nil {
			// The sink refused the report — the wrong kind or shape for the
			// oracle, a value out of range — before it touched a counter.
			r.untake(hr.User)
			return i, refusal{http.StatusUnprocessableEntity, history.ReasonBadReport, fmt.Errorf("serve: user %d: %w", hr.User, err)}
		}
		m.addReport()
		r.folded()
	}
	return len(reports), refusal{}
}

// countingReader counts the bytes read through it (ingested body bytes for
// the metrics).
type countingReader struct {
	inner interface{ Read([]byte) (int, error) }
	n     int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.n += int64(n)
	return n, err
}
