package collect

import (
	"fmt"
	"runtime"
	"sync"

	"ldpids/internal/fo"
)

// chanJob is one report request delivered to a user goroutine's inbox.
// With sink set (a striped round), the user goroutine folds its
// contribution shard-locally into stripe user%stripes and replies with an
// ack only; otherwise the contribution travels back over reply and the
// Collect loop serializes the Absorb.
type chanJob struct {
	t       int
	eps     float64
	numeric bool
	sink    StripedSink
	stripes int
	reply   chan<- chanResult
}

// chanResult is one user's answer to a chanJob. folded marks contributions
// the user goroutine already absorbed shard-locally.
type chanResult struct {
	user   int
	c      Contribution
	folded bool
	err    error
}

// Channel is the in-memory queue backend: every user is a long-lived
// goroutine — a stand-in for a separate device process — consuming report
// requests from its own inbox channel and answering with perturbed
// contributions. It exercises real concurrency (request fan-out, unordered
// arrival) without sockets, sitting between the synchronous Sim backend and
// the HTTP backend in package serve.
//
// Because each user goroutine serves its own requests serially, per-user
// randomness stays deterministic, and frequency aggregation is
// order-independent integer counting, so estimates are bit-identical to the
// Sim backend under identical seeds (see collecttest). When the round's
// sink stripes (StripedSink, e.g. an AggregatorSink over a
// fo.StripedAggregator), each user goroutine folds its own report
// shard-locally instead of funneling every contribution through the
// Collect loop's serialized Absorb — same estimates, no central
// serialization point at large n.
type Channel struct {
	n       int
	report  func(u, t int, eps float64) fo.Report
	numeric func(u, t int, eps float64) float64
	inbox   []chan chanJob
	done    chan struct{}
	once    sync.Once
}

// NewChannel starts n user goroutines answering report requests through
// the given closures (either may be nil to disable that round kind).
// Callers must Close the backend to release the goroutines.
func NewChannel(n int, report func(u, t int, eps float64) fo.Report, numeric func(u, t int, eps float64) float64) *Channel {
	if n < 1 {
		panic(fmt.Sprintf("collect: channel backend needs a positive population, got %d", n))
	}
	c := &Channel{
		n:       n,
		report:  report,
		numeric: numeric,
		inbox:   make([]chan chanJob, n),
		done:    make(chan struct{}),
	}
	for u := 0; u < n; u++ {
		c.inbox[u] = make(chan chanJob, 1)
		go c.serve(u)
	}
	return c
}

// serve is one user's device loop.
func (c *Channel) serve(u int) {
	for {
		select {
		case <-c.done:
			return
		case job := <-c.inbox[u]:
			job.reply <- c.answer(u, job)
		}
	}
}

// answer computes user u's contribution for one request, folding it
// shard-locally when the round's sink stripes.
func (c *Channel) answer(u int, job chanJob) chanResult {
	if job.numeric {
		if c.numeric == nil {
			return chanResult{user: u, err: fmt.Errorf("collect: user %d has no numeric reporter", u)}
		}
		return chanResult{user: u, c: Contribution{Numeric: true, Value: c.numeric(u, job.t, job.eps)}}
	}
	if c.report == nil {
		return chanResult{user: u, err: fmt.Errorf("collect: user %d has no frequency reporter", u)}
	}
	contribution := Contribution{Report: c.report(u, job.t, job.eps)}
	if job.sink != nil {
		// Shard-local fold: the report lands in stripe u%stripes straight
		// from this goroutine — no central Absorb serialization point.
		return chanResult{user: u, folded: true, err: job.sink.AbsorbStripe(u%job.stripes, contribution)}
	}
	return chanResult{user: u, c: contribution}
}

// N implements Collector.
func (c *Channel) N() int { return c.n }

// PreferredStripes implements Striper: one stripe per CPU, since every
// user goroutine can fold its own report.
func (c *Channel) PreferredStripes() int { return runtime.GOMAXPROCS(0) }

// Collect implements Collector: the round fans out to every requested
// user's inbox, responses are folded into sink in arrival order, and the
// first user error aborts the round (after draining outstanding replies).
func (c *Channel) Collect(req Request, sink Sink) error {
	if err := req.Validate(c.n); err != nil {
		return err
	}
	count := len(req.Users)
	if req.Users == nil {
		count = c.n
	}
	reply := make(chan chanResult, count)
	job := chanJob{t: req.T, eps: req.Eps, numeric: req.Numeric, reply: reply}
	if ss, ok := sink.(StripedSink); ok && !req.Numeric {
		if k := ss.Stripes(); k > 1 {
			job.sink, job.stripes = ss, k
		}
	}
	if err := req.forEachUser(c.n, func(u int) error {
		select {
		case c.inbox[u] <- job:
			return nil
		case <-c.done:
			return fmt.Errorf("collect: channel backend closed during round t=%d", req.T)
		}
	}); err != nil {
		return err
	}
	var firstErr error
	for i := 0; i < count; i++ {
		var res chanResult
		select {
		case res = <-reply:
		case <-c.done:
			// A concurrent Close can strand in-flight jobs; surface a
			// clean error instead of waiting for replies that never come.
			return fmt.Errorf("collect: channel backend closed during round t=%d", req.T)
		}
		if res.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("collect: user %d: %w", res.user, res.err)
			}
			continue
		}
		if res.folded {
			continue // already absorbed shard-locally on the user goroutine
		}
		if firstErr == nil {
			if err := sink.Absorb(res.c); err != nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Close stops all user goroutines. Collect must not be called after Close.
func (c *Channel) Close() {
	c.once.Do(func() { close(c.done) })
}
