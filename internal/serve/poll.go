package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// This file is the client half of the round lifecycle, written once for
// every poller (Client, cluster.Replica, the test adversary): poll →
// retry → answer. Which outcomes are transient, and what to do when the
// budget runs out, stay each caller's.

// pollerWait is the long-poll parking time a poller asks for when its
// PollWait is zero.
const pollerWait = 10 * time.Second

// LongPoll issues one long-poll GET for a round with id > after and
// decodes a 200 answer into out. endpoint is the round URL up to where the
// after parameter goes ("http://host/v1/round?"); wait zero selects 10s.
// It returns the HTTP status, or the transport or decode error.
func LongPoll(ctx context.Context, hc *http.Client, endpoint string, after int64, wait time.Duration, out any) (int, error) {
	if wait == 0 {
		wait = pollerWait
	}
	ctx, cancel := context.WithTimeout(ctx, wait+15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%safter=%d&wait=%s", endpoint, after, wait), nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return 0, fmt.Errorf("decoding round announcement: %w", err)
	}
	return resp.StatusCode, nil
}

// Budget bounds one operation's consecutive transient failures: each
// failure sleeps the next Backoff delay (cut short when ctx ends) until
// more than max have piled up.
type Budget struct {
	ctx      context.Context
	bo       *Backoff
	max      int
	what     string // the operation, for the give-up error
	failures int
}

// NewBudget returns a budget of max consecutive failures of the named
// operation, paced by bo. Zero max selects DefaultMaxRetries; a negative
// one gives up on the first failure.
func NewBudget(ctx context.Context, bo *Backoff, max int, what string) Budget {
	if max == 0 {
		max = DefaultMaxRetries
	}
	return Budget{ctx: ctx, bo: bo, max: max, what: what}
}

// Again records one transient failure and reports whether to go again,
// after sleeping out the backoff. It stops with a nil error when ctx ended
// — before or during the sleep — and with the give-up error, wrapping
// cause, when the budget is spent.
func (b *Budget) Again(cause error) (bool, error) {
	if b.ctx.Err() != nil {
		return false, nil
	}
	b.failures++
	if b.failures > b.max {
		return false, fmt.Errorf("%s: giving up after %d retries: %w", b.what, b.failures-1, cause)
	}
	t := time.NewTimer(b.bo.Next())
	defer t.Stop()
	select {
	case <-t.C:
		return true, nil
	case <-b.ctx.Done():
		return false, nil
	}
}

// Reset clears the failure count and rewinds the backoff after a success.
func (b *Budget) Reset() {
	b.failures = 0
	b.bo.Reset()
}

// Hosted returns the announced users a poller hosting [lo, hi) must answer
// for, in announcement order and with multiplicity (a user listed twice owes
// two reports); a nil announcement lists everyone. Announcement order is the
// same for every poller, so each user's per-round randomness consumption is
// deterministic and matches a single-process run. The result is non-nil
// even when empty: passed on as a request, nil would mean "everyone".
func Hosted(announced []int, lo, hi int) []int {
	if announced == nil {
		users := make([]int, hi-lo)
		for i := range users {
			users[i] = lo + i
		}
		return users
	}
	users := []int{}
	for _, u := range announced {
		if u >= lo && u < hi {
			users = append(users, u)
		}
	}
	return users
}
