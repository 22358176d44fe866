// Package cluster distributes LDP-IDS ingestion across processes: a round
// coordinator that owns the mechanism and the release stream, and N
// ingestion replicas that each fold the reports of a contiguous user-range
// shard into local aggregator stripes.
//
// The coordinator implements collect.Collector, so the existing w-event
// mechanisms drive it unchanged: each Collect announces one global round
// (id, token, timestamp, budget, requested users) to the registered
// replicas, which re-announce it verbatim to their own device clients via
// serve.Backend.SetNextRound. When a replica's local round closes, it
// ships its merged integer counters — one fo.CounterFrame, never raw
// reports — back to the coordinator, which folds the frames into the
// round's sink in shard order. Frequency aggregation is commutative
// integer counting, so the merged estimate is bit-identical to a
// single-process run over the same seeds, regardless of how the
// population is sharded; numeric mean rounds are refused, because float
// accumulation order is not.
//
// Membership is explicit: replicas join with their shard bounds (the
// shards must exactly partition [0, n) before a round opens), heartbeat
// against a TTL, and leave gracefully after shipping any in-flight
// counters. A replica that vanishes mid-round — missed heartbeats, or a
// restarted instance re-joining under the same name — fails that round as
// degraded (counted in Metrics) instead of silently releasing an estimate
// that misses its shard. A replica that restarts between rounds re-joins
// and resumes at the coordinator's round sequence, so device watermarks
// and report tokens stay coherent across the restart.
//
// A coordinator round runs the same lifecycle as a serve.Backend round —
// serve.Rounds opens, announces, long-polls, waits out the deadline and
// closes it — with these two callbacks: its Admit touches the polling
// replica's heartbeat, answers 404 to ids it does not know and announces
// only to the participants frozen at round open; its deadline wait ticks
// the liveness prune and names the replicas that did not ship. Membership,
// the partition gate, the frame buffer and the merge are the coordinator's
// own. Replica polls, retries and selects its users with the same
// serve.LongPoll, serve.Budget and serve.Hosted a device client uses; it
// reads 503 as "coordinator closed" where a device rides it out.
//
// The coordinator's HTTP surface lives under /cluster/v1/ (join,
// heartbeat, leave, round long-poll, counters) and composes with the
// serve package's query layer on one mux; cmd/ldpids-gateway wires both
// roles behind -role coordinator|replica.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/history"
	"ldpids/internal/obs"
	"ldpids/internal/serve"
)

// Defaults for Coordinator knobs.
const (
	// DefaultRoundTimeout bounds one distributed round: replicas that have
	// not shipped counters within it fail the round. It exceeds the serve
	// backend's DefaultTimeout so the replica-local deadline fires first
	// and its error reaches the coordinator as a shipment.
	DefaultRoundTimeout = serve.DefaultTimeout + 15*time.Second
	// DefaultPartitionTimeout bounds the wait for live replica shards to
	// exactly cover the population before a round opens.
	DefaultPartitionTimeout = 2 * time.Minute
	// DefaultHeartbeatInterval is the heartbeat cadence handed to joining
	// replicas.
	DefaultHeartbeatInterval = 2 * time.Second
	// DefaultTTL is how long a silent replica stays registered.
	DefaultTTL = 10 * time.Second
)

// Coordinator owns the global round sequence of a replicated deployment.
// It implements collect.Collector: mechanisms call Collect serially, and
// each call opens one distributed round over the registered replicas. The
// sink must implement collect.CounterSink, since replicas ship merged
// counter frames rather than raw reports.
//
// Mount it on a mux at /cluster/v1/ (it routes by path). Close fails the
// in-flight round and refuses further work.
type Coordinator struct {
	// Timeout bounds one distributed round. Zero selects
	// DefaultRoundTimeout.
	Timeout time.Duration
	// PartitionTimeout bounds the wait for replica shards to cover the
	// population. Zero selects DefaultPartitionTimeout.
	PartitionTimeout time.Duration
	// HeartbeatInterval is the liveness cadence handed to replicas at
	// join. Zero selects DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// TTL drops replicas silent for longer than this. Zero selects
	// DefaultTTL.
	TTL time.Duration
	// Metrics, when non-nil, counts membership churn, merged frames, and
	// degraded rounds.
	Metrics *Metrics
	// Health, when non-nil, is marked ready when the first round opens.
	Health *serve.Health
	// History, when non-nil, receives the structured ingest log: one
	// record per round announcement, accepted/refused/failed counter
	// shipment, and round close, replayable offline by cmd/ldpids-check.
	History *history.Log
	// Tracer, when non-nil, records the root span of each distributed
	// round plus a merge span. The root's context rides the round
	// announcement so replica and client spans join one trace.
	Tracer *obs.Tracer

	n      int
	oracle string
	d      int

	// rounds is the open-round register (serve's lifecycle); its lock
	// guards the membership below too, so a poll wake, a join or a prune
	// sees members and the open round in one critical section.
	rounds   *serve.Rounds[clusterRound]
	replicas map[int64]*replicaState
	nextRep  int64
	members  chan struct{} // closed and replaced on membership change
}

// replicaState is one registered replica. name, lo, and hi are immutable
// after registration; lastSeen is read and written only under the
// coordinator's lock (rounds).
type replicaState struct {
	id       int64
	name     string
	lo, hi   int
	lastSeen time.Time
}

// NewCoordinator returns a coordinator for a population of n users whose
// replicas aggregate with the named frequency oracle over domain size d.
// The oracle configuration is echoed to joining replicas so a
// misconfigured replica fails at join instead of shipping unmergeable
// counters.
func NewCoordinator(n int, oracle string, d int) (*Coordinator, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: population must be positive, got %d", n)
	}
	if _, err := fo.New(oracle, d); err != nil {
		return nil, fmt.Errorf("cluster: coordinator oracle: %w", err)
	}
	return &Coordinator{
		n:        n,
		oracle:   oracle,
		d:        d,
		rounds:   serve.NewRounds[clusterRound]("cluster", "coordinator"),
		replicas: make(map[int64]*replicaState),
		members:  make(chan struct{}),
	}, nil
}

// N implements collect.Collector.
func (c *Coordinator) N() int { return c.n }

// orDefault returns a knob's value, or def when it was left zero.
func orDefault(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

func (c *Coordinator) ttl() time.Duration { return orDefault(c.TTL, DefaultTTL) }

// Close fails any in-flight round and refuses further rounds and requests.
func (c *Coordinator) Close() error { return c.rounds.Close() }

// clusterRound is one in-flight distributed round. parts is frozen at
// round open and immutable after; the frame buffer lives under the latch's
// lock, so buffering a frame and refusing a finished round are one
// critical section.
type clusterRound struct {
	id    int64
	token string
	req   collect.Request
	parts map[int64]*replicaState

	span  *obs.Span       // the distributed round's root span; nil when untraced
	trace obs.SpanContext // announced to replicas so shard spans join the trace

	*serve.Latch
	frames map[int64]*shipment
}

// degradedError marks a round failed by a participant vanishing before
// shipping: it counts separately in Metrics, and the release stream never
// silently drops the shard.
type degradedError struct{ error }

// shipped reports whether the replica's counters for this round arrived.
func (rd *clusterRound) shipped(id int64) bool {
	rd.Lock()
	defer rd.Unlock()
	_, ok := rd.frames[id]
	return ok
}

// missingNames lists the participants that have not shipped counters yet.
func (rd *clusterRound) missingNames() string {
	rd.Lock()
	defer rd.Unlock()
	var missing []string
	for id, rep := range rd.parts {
		if _, ok := rd.frames[id]; !ok {
			missing = append(missing, fmt.Sprintf("%s[%d:%d)", rep.name, rep.lo, rep.hi))
		}
	}
	sort.Strings(missing)
	return strings.Join(missing, ", ")
}

// signalMembersLocked wakes everything waiting on a membership change.
// Callers hold the coordinator's lock.
func (c *Coordinator) signalMembersLocked() {
	close(c.members)
	c.members = make(chan struct{})
	c.Metrics.setReplicas(len(c.replicas))
}

// dropLocked removes one replica (cause is "left", "expired", or
// "replaced") and fails the open round as degraded if the replica was a
// participant that had not shipped its counters — a vanished shard must
// fail the round loudly, never silently thin the estimate. Callers hold
// the coordinator's lock.
func (c *Coordinator) dropLocked(rep *replicaState, cause string) {
	delete(c.replicas, rep.id)
	switch cause {
	case "left":
		c.Metrics.addLeave()
	case "expired":
		c.Metrics.addExpiration()
	}
	c.signalMembersLocked()
	rd, _ := c.rounds.CurrentLocked()
	if rd == nil {
		return
	}
	if _, ok := rd.parts[rep.id]; !ok {
		return
	}
	if rd.shipped(rep.id) {
		return // its shard's counters are already in; the round can complete
	}
	rd.Finish(degradedError{fmt.Errorf("cluster: round t=%d degraded: replica %q (shard [%d:%d)) %s before shipping its counters",
		rd.req.T, rep.name, rep.lo, rep.hi, cause)})
}

// pruneLocked drops every replica whose heartbeat lapsed. Callers hold
// the coordinator's lock.
func (c *Coordinator) pruneLocked(now time.Time) {
	ttl := c.ttl()
	for _, rep := range c.replicas {
		if now.Sub(rep.lastSeen) > ttl {
			c.dropLocked(rep, "expired")
		}
	}
}

// partitionLocked freezes the round participants when the live shards
// exactly cover [0, n); otherwise it describes the gap. Callers hold the
// coordinator's lock.
func (c *Coordinator) partitionLocked() (map[int64]*replicaState, string) {
	reps := make([]*replicaState, 0, len(c.replicas))
	for _, rep := range c.replicas {
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].lo < reps[j].lo })
	covered := make([]string, 0, len(reps))
	expect := 0
	ok := true
	for _, rep := range reps {
		covered = append(covered, fmt.Sprintf("[%d:%d)", rep.lo, rep.hi))
		if rep.lo != expect {
			ok = false
		}
		expect = rep.hi
	}
	if !ok || expect != c.n {
		return nil, fmt.Sprintf("live shards cover %s, want exactly [0:%d)", strings.Join(covered, ","), c.n)
	}
	parts := make(map[int64]*replicaState, len(reps))
	for _, rep := range reps {
		parts[rep.id] = rep
	}
	return parts, ""
}

// openRound waits until the live shards partition the population, then
// freezes them as the round's participants and announces the round. The
// partition check and the freeze happen inside one Open, under the lock
// every membership change takes, so none can slip between them.
func (c *Coordinator) openRound(req collect.Request) (*clusterRound, error) {
	wait := orDefault(c.PartitionTimeout, DefaultPartitionTimeout)
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	check := time.NewTicker(c.ttl() / 2)
	defer check.Stop()
	for {
		var gap string
		var members chan struct{}
		rd, err := c.rounds.Open(req, c.History, func(id int64, token string) *clusterRound {
			c.pruneLocked(time.Now())
			parts, why := c.partitionLocked()
			if parts == nil {
				gap, members = why, c.members
				return nil
			}
			rd := &clusterRound{id: id, token: token, req: req, parts: parts,
				Latch: serve.NewLatch(), frames: make(map[int64]*shipment, len(parts))}
			// The root span exists before the announcement so every
			// replica sees its context in the very first poll.
			rd.span = c.Tracer.Start("round", obs.SpanContext{}, id)
			rd.trace = rd.span.Context()
			return rd
		})
		if err != nil {
			return nil, err
		}
		if rd != nil {
			c.Health.MarkReady()
			return rd, nil
		}
		select {
		case <-members:
		case <-check.C:
		case <-deadline.C:
			return nil, fmt.Errorf("cluster: no round opened within %v: %s", wait, gap)
		case <-c.rounds.Done(): // the next Open answers the closed error
		}
	}
}

// Collect implements collect.Collector: it opens one distributed round,
// waits for every participant's counter frame (or a failure, a vanished
// participant, or the deadline), and merges the frames into the sink in
// ascending shard order. Numeric mean rounds are refused — float
// accumulation order differs across shardings, which would break the
// bit-identity contract every backend honors.
func (c *Coordinator) Collect(req collect.Request, sink collect.Sink) error {
	if err := req.Validate(c.n); err != nil {
		return err
	}
	if req.Numeric {
		return errors.New("cluster: numeric mean rounds are not supported: float accumulation does not commute bit-identically across shards")
	}
	cs, ok := sink.(collect.CounterSink)
	if !ok {
		return fmt.Errorf("cluster: sink %T cannot absorb replica counter frames", sink)
	}
	rd, err := c.openRound(req)
	if err != nil {
		return err
	}
	timeout := orDefault(c.Timeout, DefaultRoundTimeout)
	c.rounds.Await(rd.Latch, timeout, func() error {
		return fmt.Errorf("cluster: round t=%d timed out after %v: no counters from %s",
			req.T, timeout, rd.missingNames())
	}, c.ttl()/2, func() {
		c.rounds.Lock()
		c.pruneLocked(time.Now()) // a dead participant degrades the round
		c.rounds.Unlock()
	})
	c.rounds.End()

	err = rd.Err()
	if err != nil {
		_, degraded := err.(degradedError)
		if degraded {
			c.Metrics.addDegradedRound()
		}
		rd.span.End(map[string]any{"t": req.T, "ok": false, "degraded": degraded})
	} else {
		mergeStart := time.Now()
		msp := c.Tracer.Start("merge", rd.trace, rd.id)
		err = c.merge(rd, cs)
		msp.End(map[string]any{"frames": len(rd.parts), "ok": err == nil})
		c.Metrics.observeStage(stageMerge, time.Since(mergeStart))
		rd.span.End(map[string]any{"t": req.T, "ok": err == nil})
	}
	// The close record lands after the merge, and every accepted-frame
	// record was appended before its round could complete.
	if c.History != nil {
		c.History.Append(serve.CloseRecord(rd.id, req, err, cs))
	}
	return err
}

// merge folds the round's counter frames into the sink in ascending shard
// order. Counter merging is commutative, so any order yields the same
// bits; the fixed order keeps failure attribution deterministic.
func (c *Coordinator) merge(rd *clusterRound, cs collect.CounterSink) error {
	ids := make([]int64, 0, len(rd.parts))
	for id := range rd.parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return rd.parts[ids[i]].lo < rd.parts[ids[j]].lo })
	for _, id := range ids {
		rd.Lock()
		sh := rd.frames[id]
		rd.Unlock()
		if err := cs.AbsorbCounters(sh.Frame); err != nil {
			return fmt.Errorf("cluster: merging counters of replica %q: %w", rd.parts[id].name, err)
		}
		c.Metrics.addFrame(len(sh.body))
		// Merged in a finished round: nothing reads the shipment again (a
		// late duplicate is refused on the latch before it looks).
		shipmentPool.Put(sh)
	}
	return nil
}
