package cluster

import "ldpids/internal/fo"

// joinRequest is the body of POST /cluster/v1/join: a replica announces
// itself and the contiguous user range it ingests for. N is the replica's
// view of the population size; a mismatch with the coordinator's is a
// deployment error and refused outright.
type joinRequest struct {
	Name string `json:"name"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	N    int    `json:"n"`
}

// joinResponse acknowledges a join: the minted replica id, the
// coordinator's population and oracle configuration (so a misconfigured
// replica fails fast instead of shipping unmergeable counters), and the
// liveness contract the replica must keep.
type joinResponse struct {
	Replica         int64  `json:"replica"`
	N               int    `json:"n"`
	Oracle          string `json:"oracle"`
	D               int    `json:"d"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	TTLMillis       int64  `json:"ttl_ms"`
}

// replicaRef is the body of POST /cluster/v1/heartbeat and /cluster/v1/leave.
type replicaRef struct {
	Replica int64 `json:"replica"`
}

// ack is the empty success envelope of membership posts.
type ack struct {
	OK bool `json:"ok"`
}

// announcement is the body of GET /cluster/v1/round: one open coordinator
// round. It mirrors serve's RoundInfo — the replica re-announces the same
// (Round, Token) pair to its device clients via Backend.SetNextRound, so
// device watermarks and report authentication stay coherent across the
// whole cluster. Users lists the requested population subset (null means
// everyone); each replica intersects it with its own shard.
type announcement struct {
	Round  int64   `json:"round"`
	T      int     `json:"t"`
	Eps    float64 `json:"eps"`
	Token  string  `json:"token"`
	Users  []int   `json:"users"`
	Oracle string  `json:"oracle"`
	D      int     `json:"d"`
	N      int     `json:"n"`
	// Trace is the coordinator's root span context (obs.SpanContext
	// wire form), present when the coordinator traces. Replicas parent
	// their shard-round spans under it; it carries no protocol state.
	Trace string `json:"trace,omitempty"`
}

// shipment is the gob body of POST /cluster/v1/counters: one replica's
// merged integer counters for one round — never raw reports, so the
// coordinator's ingest cost scales with the counter shape, not the
// population. A replica whose local round failed ships Err instead of a
// frame; the coordinator fails the round loudly rather than releasing an
// estimate that silently misses a shard.
type shipment struct {
	Round   int64
	Token   string
	Replica int64
	Err     string
	Frame   fo.CounterFrame
}

// shipAck is the success response to a counter shipment.
type shipAck struct {
	Accepted bool `json:"accepted"`
}
