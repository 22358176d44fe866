package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/obs"
)

// Funcs holds a client process's local randomizers: Report answers
// frequency rounds, NumericReport numeric mean rounds. Both receive the
// absolute user id, the timestamp, and the round budget; the user's true
// value never leaves the client process. A nil function skips that round
// kind (the aggregator prunes the silent users at the round deadline).
type Funcs struct {
	Report        func(id, t int, eps float64) fo.Report
	NumericReport func(id, t int, eps float64) float64
}

// Client hosts a contiguous range of users against an aggregator's HTTP
// ingestion endpoint: it long-polls /v1/round and answers each round with
// batched /v1/report posts, perturbing locally. Serve loops until Close or
// until the aggregator goes away.
type Client struct {
	// PollWait is the long-poll parking time requested per /v1/round call.
	// Zero selects 10s.
	PollWait time.Duration
	// ChunkSize caps the reports per POST; larger rounds are split into
	// several posts. Zero selects DefaultMaxBatch.
	ChunkSize int
	// Retry schedules the delays between retries of transient failures
	// (transport errors, 502/503/504). Nil selects a default Backoff
	// seeded from the client's first user id, so two clients never share
	// a jitter stream.
	Retry *Backoff
	// MaxRetries bounds consecutive transient failures before Serve gives
	// up. Zero selects DefaultMaxRetries; negative disables retrying.
	MaxRetries int
	// Wire selects the report-batch encoding posted to /v1/report:
	// WireJSON (the default) or WireBinary. Negotiation is per batch — a
	// server that does not speak the advertised encoding answers 415, and
	// the client re-posts the same batch as JSON and stays on JSON from
	// then on, so a mixed fleet degrades instead of stalling.
	Wire Wire
	// Tracer, when non-nil, records a span per report post, parented
	// under the round span the announcement's Trace names. With a nil
	// Tracer the announced context is still echoed on the trace header,
	// so an untraced client does not break the aggregator's trace.
	Tracer *obs.Tracer

	jsonOnly bool // a 415 turned the binary wire down for good

	base   string
	first  int
	count  int
	fns    Funcs
	hc     *http.Client
	ctx    context.Context // base of every request context; Close cancels it
	cancel context.CancelFunc
	// Reused per chunk, so a steady-state binary post allocates nothing
	// per report: the contributions, and the request frame (nil while a
	// post holds it).
	contribs []collect.Contribution
	frame    atomic.Pointer[[]byte]
}

// NewClient returns a client for users [first, first+count) against the
// aggregator at base (e.g. "http://127.0.0.1:8080").
func NewClient(base string, first, count int, fns Funcs) (*Client, error) {
	if fns.Report == nil && fns.NumericReport == nil {
		return nil, errors.New("serve: client needs at least one report function")
	}
	if first < 0 || count < 1 {
		return nil, fmt.Errorf("serve: client needs a non-negative first id and positive count, got [%d,%d)", first, first+count)
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("serve: bad base URL: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Client{
		base:   base,
		first:  first,
		count:  count,
		fns:    fns,
		hc:     &http.Client{},
		ctx:    ctx,
		cancel: cancel,
	}, nil
}

// Close stops the serve loop, cancelling any in-flight request.
func (c *Client) Close() { c.cancel() }

// stopped reports whether Close was called.
func (c *Client) stopped() bool { return c.ctx.Err() != nil }

// budget starts a retry budget for one operation on the client's schedule,
// applying the defaults.
func (c *Client) budget(what string) Budget {
	if c.Retry == nil {
		// Seed from the hosted range: deterministic per client, distinct
		// across the clients of one process.
		c.Retry = NewBackoff(0, 0, 0x6c647069647331^uint64(c.first)*0x9e3779b97f4a7c15)
	}
	return NewBudget(c.ctx, c.Retry, c.MaxRetries, what)
}

// retryable reports whether a poll/post outcome is transient: transport
// errors and upstream-unavailable statuses. 503 is transient because a
// cluster replica restarting between rounds answers it briefly — a device
// client must ride that out, since its perturbation state cannot be
// rebuilt elsewhere. A permanently closed aggregator stops answering
// entirely, which exhausts the retry budget.
func retryable(status int, err error) bool {
	if err != nil {
		return true
	}
	switch status {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}

// Serve long-polls for rounds and answers them until Close is called
// (returns nil), the aggregator stays unavailable past the retry budget
// (returns nil after sustained 503s — it is shutting down — and the last
// transport error otherwise), or a request fails non-transiently (returns
// that error). Transient failures — transport errors, 502/503/504 — are
// retried with capped jittered exponential backoff (Retry/MaxRetries), so
// a flaky network or a replica restarting between rounds does not strand
// the client's irreplaceable device state.
func (c *Client) Serve() error {
	var after int64
	polls := c.budget("serve: polling for rounds")
	for {
		if c.stopped() {
			return nil
		}
		var ri RoundInfo
		status, err := LongPoll(c.ctx, c.hc, c.base+"/v1/round?", after, c.PollWait, &ri)
		if retryable(status, err) {
			again, gaveUp := polls.Again(err)
			if again {
				continue
			}
			if err == nil {
				return nil // sustained 503: the aggregator is shutting down
			}
			return gaveUp
		}
		polls.Reset()
		switch status {
		case http.StatusOK:
		case http.StatusNoContent:
			continue // long poll expired with no new round
		default:
			return fmt.Errorf("serve: /v1/round returned status %d", status)
		}
		after = ri.Round
		if err := c.answer(&ri); err != nil {
			if c.stopped() {
				return nil
			}
			return err
		}
	}
}

// answer perturbs and posts this client's share of a round, chunked into
// batches. A 409 means the round closed before the post landed (timed out
// or completed via other clients' reports) — the client just moves on.
func (c *Client) answer(ri *RoundInfo) error {
	users := Hosted(ri.Users, c.first, c.first+c.count)
	if len(users) == 0 {
		return nil
	}
	if ri.Numeric && c.fns.NumericReport == nil || !ri.Numeric && c.fns.Report == nil {
		return nil // cannot answer this round kind; the deadline prunes us
	}
	chunk := c.ChunkSize
	if chunk <= 0 {
		chunk = DefaultMaxBatch
	}
	roundCtx, _ := obs.ParseSpanContext(ri.Trace)
	for len(users) > 0 {
		n := min(chunk, len(users))
		if more, err := c.answerChunk(ri, users[:n], roundCtx); err != nil || !more {
			return err
		}
		users = users[n:]
	}
	return nil
}

// perturb runs the round's randomizer for each listed user into the
// client's reused contribution buffer.
func (c *Client) perturb(ri *RoundInfo, users []int) chunk {
	c.contribs = c.contribs[:0]
	for _, u := range users {
		if ri.Numeric {
			c.contribs = append(c.contribs, collect.Contribution{Numeric: true, Value: c.fns.NumericReport(u, ri.T, ri.Eps)})
		} else {
			c.contribs = append(c.contribs, collect.Contribution{Report: c.fns.Report(u, ri.T, ri.Eps)})
		}
	}
	return chunk{round: ri.Round, token: ri.Token, users: users, contribs: c.contribs}
}

// answerChunk perturbs and posts one chunk of a round, and reports whether
// the round still takes posts: not once it closed under this one (409) or
// the aggregator is going away (503).
func (c *Client) answerChunk(ri *RoundInfo, users []int, roundCtx obs.SpanContext) (more bool, err error) {
	sp := c.Tracer.Start("post", roundCtx, ri.Round)
	// End is idempotent: the happy path ends the span with its status
	// below, and this deferred end catches every abort path (Close
	// mid-retry, retry budget exhausted) so no span leaks unended.
	defer sp.End(map[string]any{"reports": len(users), "aborted": true})
	trace := sp.ContextOr(roundCtx).String()
	k := c.perturb(ri, users)
	// Transport errors are retried: a lost response cannot double-fold
	// (the server's per-user take slots refuse the duplicate with 409,
	// which the client treats as "round closed"), and a replica
	// restarting under the post comes back within the backoff budget.
	posts := c.budget("serve: posting reports")
	status, err := c.post(k, trace)
	for ; err != nil; status, err = c.post(k, trace) {
		if again, gaveUp := posts.Again(err); !again {
			return false, gaveUp
		}
	}
	posts.Reset()
	sp.End(map[string]any{"reports": len(users), "status": status})
	switch status {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict, http.StatusServiceUnavailable:
		return false, nil
	default:
		return false, fmt.Errorf("serve: /v1/report returned status %d", status)
	}
}

// post sends one chunk over the selected wire, negotiating per batch: a
// 415 on the binary wire falls back to JSON immediately (the same chunk is
// re-posted; nothing of it folded) and permanently. The binary frame is
// encoded into the client's reused one; the canonical batch is built only
// for a JSON body.
func (c *Client) post(k chunk, trace string) (int, error) {
	if c.Wire == WireBinary && !c.jsonOnly {
		var frame []byte
		if last := c.frame.Swap(nil); last != nil { // nil: the transport still holds it
			frame = *last
		}
		frame, err := k.encodeBinary(frame)
		if err != nil {
			return 0, err
		}
		status, err := c.postAs(ContentTypeBinary, trace, &lease{buf: frame, home: &c.frame})
		if err != nil || status != http.StatusUnsupportedMediaType {
			return status, err
		}
		c.jsonOnly = true
	}
	body, err := json.Marshal(k.canonical())
	if err != nil {
		return 0, err
	}
	return c.postAs(ContentTypeJSON, trace, &lease{buf: body})
}

// lease lends one encoded body to net/http for the length of a post. The
// transport writes a request body on its own goroutine, and Do can return
// while that goroutine is still reading it — whenever the server answers
// before consuming the body, as this one does for 415, 413 and 503 — so a
// reused buffer goes home only once the post has returned and every reader
// the transport was handed is closed.
type lease struct {
	buf   []byte
	home  *atomic.Pointer[[]byte] // where a reused buffer returns; nil for a one-off
	holds atomic.Int32            // the post itself, plus every open reader
}

func (l *lease) open() io.ReadCloser {
	l.holds.Add(1)
	return &leasedBody{Reader: bytes.NewReader(l.buf), lease: l}
}

func (l *lease) release() {
	if l.holds.Add(-1) == 0 && l.home != nil {
		l.home.Store(&l.buf)
	}
}

// leasedBody is one reader over a leased buffer; the transport may close
// it more than once.
type leasedBody struct {
	*bytes.Reader
	lease  *lease
	closed sync.Once
}

func (b *leasedBody) Close() error {
	b.closed.Do(b.lease.release)
	return nil
}

// postAs sends one encoded batch under the given content type. Length and
// GetBody are set by hand (net/http infers them only for its own reader
// types), so the transport can still rewind the body on a stale connection.
func (c *Client) postAs(contentType, trace string, body *lease) (int, error) {
	body.holds.Add(1)
	defer body.release()
	ctx, cancel := context.WithTimeout(c.ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/report", body.open())
	if err != nil {
		return 0, err
	}
	req.ContentLength = int64(len(body.buf))
	req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
	req.Header.Set("Content-Type", contentType)
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
