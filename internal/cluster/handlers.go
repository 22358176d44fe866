package cluster

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ldpids/internal/history"
	"ldpids/internal/serve"
)

// routes is the /cluster/v1/ surface: each path's one method and handler.
var routes = map[string]struct {
	method string
	handle func(*Coordinator, http.ResponseWriter, *http.Request)
}{
	"/cluster/v1/join":      {http.MethodPost, (*Coordinator).handleJoin},
	"/cluster/v1/heartbeat": {http.MethodPost, (*Coordinator).handleHeartbeat},
	"/cluster/v1/leave":     {http.MethodPost, (*Coordinator).handleLeave},
	"/cluster/v1/round":     {http.MethodGet, (*Coordinator).handleRound},
	"/cluster/v1/counters":  {http.MethodPost, (*Coordinator).handleCounters},
}

// ServeHTTP implements http.Handler, routing the /cluster/v1/ surface: 404
// for a path it does not serve, 405 for the wrong method — before the
// handler reads a parameter or a byte of the body.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route, ok := routes[r.URL.Path]
	if !ok {
		serve.HTTPError(w, http.StatusNotFound, "cluster: unknown path %s", r.URL.Path)
		return
	}
	if r.Method != route.method {
		serve.HTTPError(w, http.StatusMethodNotAllowed, "cluster: %s %s", r.Method, r.URL.Path)
		return
	}
	route.handle(c, w, r)
}

// handleJoin serves POST /cluster/v1/join: validate the announced shard,
// replace any dead same-name registration (a restarted replica), refuse
// overlaps, and hand back the id plus the coordinator's configuration.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var jr joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&jr); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "cluster: malformed join request: %v", err)
		return
	}
	if jr.Name == "" {
		serve.HTTPError(w, http.StatusUnprocessableEntity, "cluster: join needs a replica name")
		return
	}
	if jr.N != c.n {
		serve.HTTPError(w, http.StatusConflict, "cluster: replica %q sees population %d, coordinator has %d", jr.Name, jr.N, c.n)
		return
	}
	if jr.Lo < 0 || jr.Hi <= jr.Lo || jr.Hi > c.n {
		serve.HTTPError(w, http.StatusUnprocessableEntity, "cluster: replica %q shard [%d:%d) is not a sub-range of [0:%d)", jr.Name, jr.Lo, jr.Hi, c.n)
		return
	}
	c.rounds.Lock()
	if _, err := c.rounds.CurrentLocked(); err != nil {
		c.rounds.Unlock()
		serve.HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	now := time.Now()
	c.pruneLocked(now)
	// A join under a registered name is a restarted instance: the old
	// registration is dead even if its TTL has not lapsed yet (and if it
	// owed the open round counters, that round degrades now, not at the
	// timeout).
	for _, rep := range c.replicas {
		if rep.name == jr.Name {
			c.dropLocked(rep, "replaced")
			break
		}
	}
	for _, rep := range c.replicas {
		if jr.Lo < rep.hi && rep.lo < jr.Hi {
			lo, hi, name := rep.lo, rep.hi, rep.name
			c.rounds.Unlock()
			serve.HTTPError(w, http.StatusConflict, "cluster: shard [%d:%d) overlaps replica %q [%d:%d)", jr.Lo, jr.Hi, name, lo, hi)
			return
		}
	}
	c.nextRep++
	rep := &replicaState{id: c.nextRep, name: jr.Name, lo: jr.Lo, hi: jr.Hi, lastSeen: now}
	c.replicas[rep.id] = rep
	c.Metrics.addJoin()
	c.signalMembersLocked()
	resp := joinResponse{
		Replica:         rep.id,
		N:               c.n,
		Oracle:          c.oracle,
		D:               c.d,
		HeartbeatMillis: orDefault(c.HeartbeatInterval, DefaultHeartbeatInterval).Milliseconds(),
		TTLMillis:       c.ttl().Milliseconds(),
	}
	c.rounds.Unlock()
	serve.WriteJSON(w, resp)
}

// handleHeartbeat serves POST /cluster/v1/heartbeat. 404 tells a replica
// its registration lapsed and it must re-join.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var ref replicaRef
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&ref); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "cluster: malformed heartbeat: %v", err)
		return
	}
	c.rounds.Lock()
	if _, err := c.rounds.CurrentLocked(); err != nil {
		c.rounds.Unlock()
		serve.HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	rep := c.replicas[ref.Replica]
	if rep == nil {
		c.rounds.Unlock()
		serve.HTTPError(w, http.StatusNotFound, "cluster: unknown replica %d (re-join)", ref.Replica)
		return
	}
	rep.lastSeen = time.Now()
	c.rounds.Unlock()
	serve.WriteJSON(w, ack{OK: true})
}

// handleLeave serves POST /cluster/v1/leave: a graceful departure.
// Leaving is idempotent — an unknown id answers success, so a retried
// leave never strands a shutting-down replica.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var ref replicaRef
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&ref); err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "cluster: malformed leave: %v", err)
		return
	}
	c.rounds.Lock()
	if rep := c.replicas[ref.Replica]; rep != nil {
		c.dropLocked(rep, "left")
	}
	c.rounds.Unlock()
	serve.WriteJSON(w, ack{OK: true})
}

// handleRound serves GET /cluster/v1/round?replica=ID&after=ID&wait=D
// (serve.Rounds.ServePoll): it long-polls for the next round the replica
// participates in. Only the participants frozen at round open see an
// announcement; a replica that joined mid-round parks until the next one.
// Polling doubles as liveness: each wake touches the replica's heartbeat.
func (c *Coordinator) handleRound(w http.ResponseWriter, r *http.Request) {
	s := r.URL.Query().Get("replica")
	id, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "cluster: bad replica parameter %q", s)
		return
	}
	c.rounds.ServePoll(w, r, func(rd *clusterRound) (any, int, error) {
		rep := c.replicas[id]
		if rep == nil {
			return nil, http.StatusNotFound, fmt.Errorf("cluster: unknown replica %d (re-join)", id)
		}
		rep.lastSeen = time.Now()
		if rd == nil {
			return nil, 0, nil
		}
		if _, ok := rd.parts[id]; !ok {
			return nil, 0, nil
		}
		return announcement{
			Round: rd.id, T: rd.req.T, Eps: rd.req.Eps, Token: rd.token,
			Users: rd.req.Users, Oracle: c.oracle, D: c.d, N: c.n,
			Trace: rd.trace.String(),
		}, 0, nil
	})
}

// handleCounters serves POST /cluster/v1/counters: one replica's LDPC
// shipment for the open round, read into a pooled buffer sized from
// Content-Length and decoded into pooled counter storage. The shipment
// authenticates against the round token; duplicates (a retry after a lost
// ack) answer 409, which the replica treats as settled. The frame is only
// buffered here — merging happens on the Collect goroutine once every
// participant has shipped, so the sink is never touched concurrently, and
// the merge hands the shipment back to the pool. One that is not buffered
// (a refusal, a replica's error) is left to the GC: both are rare.
func (c *Coordinator) handleCounters(w http.ResponseWriter, r *http.Request) {
	sh := shipmentPool.Get().(*shipment)
	// refuseFrame logs the shipment verdict and answers the error.
	refuseFrame := func(status int, reason, replica string, format string, args ...any) {
		c.History.Append(history.Record{Kind: history.KindFrame, Verdict: history.VerdictRefused,
			Reason: reason, Status: status, Round: sh.Round, Token: string(sh.Token), Replica: replica})
		c.Metrics.addFrameRefusal(reason)
		serve.HTTPError(w, status, format, args...)
	}
	limit := int64(maxShipmentBody)
	if r.ContentLength >= 0 {
		limit = min(limit, r.ContentLength)
	}
	var err error
	sh.body, err = serve.ReadFrame(http.MaxBytesReader(w, r.Body, maxShipmentBody), sh.body, limit)
	if err == nil {
		err = sh.decode()
	}
	if err != nil {
		refuseFrame(http.StatusBadRequest, history.ReasonMalformed, "", "cluster: malformed counter shipment: %v", err)
		return
	}
	c.rounds.Lock()
	rd, err := c.rounds.CurrentLocked()
	if err != nil {
		c.rounds.Unlock()
		serve.HTTPError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if rep := c.replicas[sh.Replica]; rep != nil {
		rep.lastSeen = time.Now() // shipping is proof of life
	}
	c.rounds.Unlock()
	if rd == nil || sh.Round != rd.id ||
		subtle.ConstantTimeCompare(sh.Token, []byte(rd.token)) != 1 {
		refuseFrame(http.StatusConflict, history.ReasonStaleToken, "", "cluster: stale round token (round %d is not open)", sh.Round)
		return
	}
	rep, ok := rd.parts[sh.Replica]
	if !ok {
		refuseFrame(http.StatusConflict, history.ReasonNotParticipant, "", "cluster: replica %d is not a participant of round %d", sh.Replica, rd.id)
		return
	}
	if sh.Err != "" {
		// A failed-round shipment is journaled before finish, so the
		// failure record precedes the close record in the log.
		c.History.Append(history.Record{Kind: history.KindFrame, Verdict: history.VerdictFailed,
			Reason: history.ReasonReplicaError, Round: sh.Round, Token: string(sh.Token),
			Replica: rep.name, Lo: rep.lo, Hi: rep.hi, Err: sh.Err})
		rd.Finish(fmt.Errorf("cluster: replica %q (shard [%d:%d)) failed round t=%d: %s",
			rep.name, rep.lo, rep.hi, rd.req.T, sh.Err))
		serve.WriteJSON(w, shipAck{Accepted: true})
		return
	}
	if err := sh.Frame.Validate(); err != nil {
		refuseFrame(http.StatusUnprocessableEntity, history.ReasonBadFrame, rep.name, "cluster: replica %q shipped a bad frame: %v", rep.name, err)
		return
	}
	rd.Lock()
	if rd.DoneLocked() {
		rd.Unlock()
		refuseFrame(http.StatusConflict, history.ReasonRoundClosed, rep.name, "cluster: round %d already closed", rd.id)
		return
	}
	if _, dup := rd.frames[sh.Replica]; dup {
		rd.Unlock()
		refuseFrame(http.StatusConflict, history.ReasonDuplicate, rep.name, "cluster: replica %q already shipped round %d", rep.name, rd.id)
		return
	}
	rd.frames[sh.Replica] = sh
	// Journaled under rd.mu: every accepted-frame record precedes the
	// round's completion (and so its close record). The record aliases the
	// pooled counters, which Append serializes before it returns.
	if c.History != nil {
		c.History.Append(history.Record{Kind: history.KindFrame, Verdict: history.VerdictAccepted,
			Status: http.StatusOK, Round: sh.Round, Token: string(sh.Token),
			Replica: rep.name, Lo: rep.lo, Hi: rep.hi, Frame: history.FrameOf(sh.Frame)})
	}
	full := len(rd.frames) == len(rd.parts)
	rd.Unlock()
	if full {
		rd.Finish(nil)
	}
	serve.WriteJSON(w, shipAck{Accepted: true})
}
