package main

import (
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
)

// Span names. A timestamp (one Mechanism.Step) parents its rounds,
// estimates and publish; a round parents the client posts it caused; a
// post parents the handler that served it, linked by spanHeader.
const (
	spanTimestamp = "timestamp"
	spanRound     = "round"    // Env.CollectStream: one collection round
	spanEstimate  = "estimate" // fo.Aggregator.Estimate
	spanPublish   = "publish"  // OnRelease: Snapshots.Publish
	spanPost      = "post"     // client POST /v1/report, at the transport
	spanPoll      = "poll"     // client GET /v1/round, at the transport
	spanShip      = "ship"     // replica POST /cluster/v1/counters, at the transport
	spanOther     = "other"
	spanReport    = "report-handler"
	spanCounters  = "counters-handler"
	spanQuery     = "query-handler"
)

// spanHeader carries the transport span's id to the handler wrapper, so a
// handler span can name the post that caused it. Traced set only.
const spanHeader = "X-Bench-Span"

// baseTransport is the process-wide transport serve.Client and
// cluster.Replica use through http.DefaultTransport.
var baseTransport = http.DefaultTransport.(*http.Transport)

// span is one timed interval at a layer boundary. Times are offsets from
// the tracer's epoch.
type span struct {
	id, parent int32
	name, proc string
	t          int // timestamp the span belongs to
	start, end time.Duration
	bytes      int64 // request body bytes (handler spans)
	ok         bool  // 2xx response (transport spans)
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans around the public calls into each layer, from the
// benchmark's own files: nothing outside bench/ knows it exists. Spans are
// appended to a pre-sized in-memory slice and analysed or written out
// after the run ends. A nil tracer records nothing and wraps nothing, so
// the untraced set runs the bare program.
type tracer struct {
	epoch time.Time
	ids   atomic.Int32
	// timestamp and round are the ids of the open timestamp and round
	// spans, the parents of whatever starts meanwhile.
	timestamp, round atomic.Int32
	t                atomic.Int64

	// Per-report perturbation is summed, not spanned: a span per report
	// would cost more than the call it times.
	perturbNs, perturbed atomic.Int64
	markNs, markCount    int64 // their values when the measured phase began

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// install routes http.DefaultTransport through the tracer and returns the
// function that restores it.
func (tr *tracer) install() func() {
	if tr == nil {
		return func() {}
	}
	http.DefaultTransport = tr
	return func() { http.DefaultTransport = baseTransport }
}

// begin opens a span; end closes and records it.
func (tr *tracer) begin(name, proc string, parent int32) span {
	if tr == nil {
		return span{}
	}
	return span{id: tr.ids.Add(1), parent: parent, name: name, proc: proc,
		t: int(tr.t.Load()), start: time.Since(tr.epoch)}
}

func (tr *tracer) end(s span) {
	if tr == nil {
		return
	}
	s.end = time.Since(tr.epoch)
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// beginTimestamp opens the span of one Mechanism.Step and makes it the
// parent of the rounds, estimates and publish that follow.
func (tr *tracer) beginTimestamp(t int) span {
	if tr == nil {
		return span{}
	}
	tr.t.Store(int64(t))
	s := tr.begin(spanTimestamp, "mechanism", 0)
	tr.timestamp.Store(s.id)
	return s
}

// timestampID returns the open timestamp span's id.
func (tr *tracer) timestampID() int32 {
	if tr == nil {
		return 0
	}
	return tr.timestamp.Load()
}

// mark notes the start of the measured phase and returns it as an offset
// from the tracer's epoch.
func (tr *tracer) mark() time.Duration {
	if tr == nil {
		return 0
	}
	tr.markNs, tr.markCount = tr.perturbNs.Load(), tr.perturbed.Load()
	return time.Since(tr.epoch)
}

// report times the device's perturbation closure.
func (tr *tracer) report(fn func(id, t int, eps float64) fo.Report) func(id, t int, eps float64) fo.Report {
	if tr == nil {
		return fn
	}
	return func(id, t int, eps float64) fo.Report {
		start := time.Now()
		r := fn(id, t, eps)
		tr.perturbNs.Add(int64(time.Since(start)))
		tr.perturbed.Add(1)
		return r
	}
}

// RoundTrip implements http.RoundTripper: one span per client or replica
// request, as seen from the caller's side of the loopback.
func (tr *tracer) RoundTrip(req *http.Request) (*http.Response, error) {
	name := spanOther
	switch req.URL.Path {
	case "/v1/report":
		name = spanPost
	case "/v1/round":
		name = spanPoll
	case "/cluster/v1/counters":
		name = spanShip
	}
	s := tr.begin(name, "client", tr.round.Load())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(s.id)))
	resp, err := baseTransport.RoundTrip(req)
	s.ok = err == nil && resp.StatusCode/100 == 2
	tr.end(s)
	return resp, err
}

// handler times h around ServeHTTP without wrapping the ResponseWriter, so
// the handler sees exactly the writer net/http gave it.
func (tr *tracer) handler(proc string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanOther
		switch r.URL.Path {
		case "/v1/report":
			name = spanReport
		case "/cluster/v1/counters":
			name = spanCounters
		case "/v1/estimate":
			name = spanQuery
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		s := tr.begin(name, proc, int32(parent))
		s.bytes = r.ContentLength
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}

// timedEnv is the mechanism's view of collect.Env in the traced set: it
// spans every collection round and hands out aggregators whose Estimate is
// spanned. The backend still receives the aggregator collect.Env chose —
// CollectStream unwraps it — so striping and counter-frame absorption are
// exactly the untraced ones.
type timedEnv struct {
	*collect.Env
	tr *tracer
}

// timedAgg spans Estimate and forwards everything else.
type timedAgg struct {
	fo.Aggregator
	tr *tracer
}

func (a *timedAgg) Estimate() ([]float64, error) {
	s := a.tr.begin(spanEstimate, "mechanism", a.tr.timestampID())
	est, err := a.Aggregator.Estimate()
	a.tr.end(s)
	return est, err
}

// NewRoundAggregator implements mechanism.AggregatorEnv.
func (e timedEnv) NewRoundAggregator(o fo.Oracle, eps float64) (fo.Aggregator, error) {
	agg, err := e.Env.NewRoundAggregator(o, eps)
	if err != nil {
		return nil, err
	}
	return &timedAgg{Aggregator: agg, tr: e.tr}, nil
}

// CollectStream implements mechanism.StreamEnv.
func (e timedEnv) CollectStream(users []int, eps float64, agg fo.Aggregator) error {
	if ta, ok := agg.(*timedAgg); ok {
		agg = ta.Aggregator
	}
	s := e.tr.begin(spanRound, "collect", e.tr.timestampID())
	e.tr.round.Store(s.id)
	err := e.Env.CollectStream(users, eps, agg)
	e.tr.end(s)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeChrome renders the spans as Chrome trace-event JSON (one process
// row per proc, one thread row per timestamp) with each span's self time —
// its duration minus the part its children cover — as an argument.
func writeChrome(path string, epoch time.Time, spans []span) error {
	children := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		children[s.parent] += s.dur()
	}
	recs := make([]obs.SpanRecord, len(spans))
	for i, s := range spans {
		rec := obs.SpanRecord{
			Trace: "bench", Span: strconv.Itoa(int(s.id)), Name: s.name, Src: s.proc,
			Round: int64(s.t), Start: epoch.Add(s.start).UnixNano(), Dur: int64(s.dur()),
			Attrs: map[string]any{"self_ms": ms(max(0, s.dur()-children[s.id]))},
		}
		if s.parent != 0 {
			rec.Parent = strconv.Itoa(int(s.parent))
		}
		recs[i] = rec
	}
	out, err := obs.ChromeTrace(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
