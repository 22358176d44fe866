package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/history"
)

// This file is the server half of the round lifecycle, written once for
// both round owners (Backend here, cluster.Coordinator): open → announce →
// long-poll → deadline → close. It holds every protocol timer of that
// path. What a round collects, who may see its announcement and what a
// missed deadline is called are the owner's, and enter through callbacks.

// Long-poll parking times, shared by every round owner.
const (
	// DefaultPollWait is the parking time of a long-poll that names none.
	DefaultPollWait = 25 * time.Second
	// maxPollWait caps poller-requested parking.
	maxPollWait = 60 * time.Second
)

// Rounds is a round owner's open-round register: at most one round is
// open, ids only grow, and opening a round wakes every parked poller.
// Its lock is the owner's lock — state that must change together with the
// open round (the coordinator's membership) is guarded by Lock/Unlock too,
// so one acquisition covers both.
type Rounds[R any] struct {
	sync.Mutex

	pkg       string // prefixes error text, nothing else
	errClosed error

	cur      *R
	lastID   int64         // id of the most recently opened round
	pinToken string        // next round's token when pinned via Pin
	announce chan struct{} // closed and replaced when a round opens
	closed   bool
	done     chan struct{}

	// tokens overrides round-token generation (tests, benchmarks); nil
	// means crypto/rand.
	tokens func() string
}

// NewRounds returns the register of the named owner; pkg and owner only
// word its errors ("serve: backend closed").
func NewRounds[R any](pkg, owner string) *Rounds[R] {
	return &Rounds[R]{
		pkg:       pkg,
		errClosed: fmt.Errorf("%s: %s closed", pkg, owner),
		announce:  make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// mint generates a fresh round token.
func (g *Rounds[R]) mint() string {
	if g.tokens != nil {
		return g.tokens()
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		panic(fmt.Sprintf("%s: reading random token: %v", g.pkg, err))
	}
	return hex.EncodeToString(buf[:])
}

// Open opens the next round: it refuses a closed register and a second
// round while one is open, then has build make the owner's round for the
// next id and a fresh (or pinned) token. build runs under the lock and may
// decline by returning nil — nothing opens and no id is consumed. The
// round record is journaled before the wake, still under the lock every
// handler crosses to see the round, so no batch or frame record can
// precede its round in the log.
func (g *Rounds[R]) Open(req collect.Request, hist *history.Log, build func(id int64, token string) *R) (*R, error) {
	g.Lock()
	defer g.Unlock()
	if g.closed {
		return nil, g.errClosed
	}
	if g.cur != nil {
		return nil, fmt.Errorf("%s: a collection round is already in progress", g.pkg)
	}
	token := g.pinToken
	if token == "" {
		token = g.mint()
	}
	rd := build(g.lastID+1, token)
	if rd == nil {
		return nil, nil
	}
	g.lastID++
	g.pinToken = ""
	g.cur = rd
	rec := history.Record{Kind: history.KindRound, Round: g.lastID, Token: token,
		T: req.T, Eps: req.Eps, Numeric: req.Numeric}
	if req.Users == nil {
		rec.All = true
	} else {
		rec.Users = req.Users
	}
	hist.Append(rec)
	old := g.announce
	g.announce = make(chan struct{})
	close(old) // wake long-pollers
	return rd, nil
}

// End retires the open round: later requests naming it are stale.
func (g *Rounds[R]) End() {
	g.Lock()
	g.cur = nil
	g.Unlock()
}

// Current returns the open round (nil between rounds), or the owner's
// closed error after Close.
func (g *Rounds[R]) Current() (*R, error) {
	g.Lock()
	defer g.Unlock()
	return g.CurrentLocked()
}

// CurrentLocked is Current for callers holding the lock.
func (g *Rounds[R]) CurrentLocked() (*R, error) {
	if g.closed {
		return nil, g.errClosed
	}
	return g.cur, nil
}

// Pin fixes the id and token of the next round instead of the register's
// own sequence, for exactly one round. The id must exceed every id opened
// before; the token must be non-empty.
func (g *Rounds[R]) Pin(id int64, token string) error {
	g.Lock()
	defer g.Unlock()
	if g.cur != nil {
		return fmt.Errorf("%s: cannot pin the next round while one is in flight", g.pkg)
	}
	if id <= g.lastID {
		return fmt.Errorf("%s: pinned round id %d is not above the last announced id %d", g.pkg, id, g.lastID)
	}
	if token == "" {
		return fmt.Errorf("%s: pinned round needs a non-empty token", g.pkg)
	}
	g.lastID = id - 1
	g.pinToken = token
	return nil
}

// Close fails any in-flight round and refuses further rounds and requests.
func (g *Rounds[R]) Close() error {
	g.Lock()
	defer g.Unlock()
	if !g.closed {
		g.closed = true
		close(g.done)
	}
	return nil
}

// Done is closed by Close.
func (g *Rounds[R]) Done() <-chan struct{} { return g.done }

// Latch is one round's completion latch: Finish closes it exactly once and
// the first error stays. Its lock is the round's lock — an owner guards the
// per-round state that must change together with completion (report slots,
// buffered frames) under Lock/Unlock and reads DoneLocked there.
type Latch struct {
	sync.Mutex
	done     bool
	err      error
	complete chan struct{}
}

// NewLatch returns an open latch.
func NewLatch() *Latch { return &Latch{complete: make(chan struct{})} }

// Finish closes the round with the given error (nil for a complete round);
// only the first call counts.
func (l *Latch) Finish(err error) {
	l.Lock()
	defer l.Unlock()
	if l.done {
		return
	}
	l.done = true
	l.err = err
	close(l.complete)
}

// DoneLocked reports whether the round finished. Callers hold the lock.
func (l *Latch) DoneLocked() bool { return l.done }

// Err returns the error the round finished with.
func (l *Latch) Err() error {
	l.Lock()
	defer l.Unlock()
	return l.err
}

// Await blocks until the round finishes. It finishes the round itself when
// the deadline passes (with the owner's expired error, built then) or the
// register closes. A non-nil onTick runs every tick in between, on the
// calling goroutine.
func (g *Rounds[R]) Await(l *Latch, timeout time.Duration, expired func() error, tick time.Duration, onTick func()) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var ticks <-chan time.Time // nil never fires
	if onTick != nil {
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		ticks = ticker.C
	}
	for {
		select {
		case <-l.complete:
			return
		case <-timer.C:
			l.Finish(expired())
			return
		case <-ticks:
			onTick()
		case <-g.done:
			l.Finish(fmt.Errorf("%v mid-round", g.errClosed))
			return
		}
	}
}

// CloseRecord is a round's close journal record: ok with the sink's
// counters (frequency rounds whose sink exports them), or the failure. The
// owner appends it once nothing can touch the sink any more, so every
// accepted batch or frame record precedes it in the log.
func CloseRecord(id int64, req collect.Request, err error, sink collect.Sink) history.Record {
	rec := history.Record{Kind: history.KindClose, Round: id, T: req.T, OK: err == nil}
	if err != nil {
		rec.Err = err.Error()
	} else if !req.Numeric {
		if f, cErr := collect.SinkCounters(sink); cErr == nil {
			rec.Counters = history.FrameOf(f)
		}
	}
	return rec
}

// Admit answers one wake of a long-poll, under the register's lock: rd is
// the open round when its id is above the poller's watermark, else nil. A
// non-nil body announces the round (200); a non-nil err turns the poller
// away with that status; neither parks it until the next wake.
type Admit[R any] func(rd *R) (body any, status int, err error)

// ServePoll serves a long-poll GET ...?after=ID&wait=DURATION: it asks
// admit on arrival and again whenever a round opens, parks the request up
// to wait in between, and answers 204 when nothing was announced in time
// and 503 once the register closes.
func (g *Rounds[R]) ServePoll(w http.ResponseWriter, r *http.Request, admit Admit[R]) {
	q := r.URL.Query()
	var after int64
	if s := q.Get("after"); s != "" {
		var err error
		if after, err = strconv.ParseInt(s, 10, 64); err != nil {
			HTTPError(w, http.StatusBadRequest, "%s: bad after parameter %q", g.pkg, s)
			return
		}
	}
	wait := DefaultPollWait
	if s := q.Get("wait"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			HTTPError(w, http.StatusBadRequest, "%s: bad wait parameter %q", g.pkg, s)
			return
		}
		wait = min(d, maxPollWait)
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		g.Lock()
		if g.closed {
			g.Unlock()
			HTTPError(w, http.StatusServiceUnavailable, "%v", g.errClosed)
			return
		}
		var fresh *R
		if g.cur != nil && g.lastID > after {
			fresh = g.cur
		}
		body, status, err := admit(fresh)
		announce := g.announce
		g.Unlock()
		if err != nil {
			HTTPError(w, status, "%v", err)
			return
		}
		if body != nil {
			WriteJSON(w, body)
			return
		}
		select {
		case <-announce:
		case <-deadline.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		case <-g.done:
			HTTPError(w, http.StatusServiceUnavailable, "%v", g.errClosed)
			return
		}
	}
}

// wireError is the JSON error envelope of every non-2xx response.
type wireError struct {
	Error string `json:"error"`
}

// HTTPError writes the JSON error envelope.
func HTTPError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireError{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON writes a 200 JSON response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
