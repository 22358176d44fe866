package serve

import (
	"fmt"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// RoundInfo announces one open collection round to polling clients
// (GET /v1/round). Token authenticates reports into exactly this round: it
// is fresh per round, so a captured batch cannot be replayed into a later
// one.
type RoundInfo struct {
	// Round is the monotonically increasing round id.
	Round int64 `json:"round"`
	// T is the mechanism timestamp the round collects for.
	T int `json:"t"`
	// Eps is the round's privacy budget.
	Eps float64 `json:"eps"`
	// Token must be echoed on every report batch for this round.
	Token string `json:"token"`
	// Users lists the requested user ids; null means the whole population.
	Users []int `json:"users"`
	// N is the population size.
	N int `json:"n"`
	// Trace is the round span's context (obs.SpanContext wire form),
	// present when the aggregator traces. Clients echo it as the
	// X-Ldpids-Trace header on report posts so batch spans join the
	// round's trace; it carries no protocol state.
	Trace string `json:"trace,omitempty"`
}

// chunk is one post's worth of a round's answers as the randomizers
// produced them: users[i] reported reports[i]. Each wire encodes it as it
// stands, straight into the client's reused frame (encodeBinary,
// encodeJSON).
type chunk struct {
	round   int64
	token   string
	users   []int
	reports []fo.Report
}

// reportAck is the success response to a report batch.
type reportAck struct {
	Accepted int `json:"accepted"`
}

// wireBatch is one decoded POST /v1/report body, whichever wire carried
// it: what handleReport authenticates, folds and journals — canonical
// history.Report values, the journal's own shape. On both wires the token
// and the report payloads alias the request's pooled scratch.
type wireBatch struct {
	round   int64
	token   []byte
	reports []history.Report
}

// batchTooLargeError is a batch whose report count exceeds the cap.
type batchTooLargeError struct{ count, max int }

func (e batchTooLargeError) Error() string {
	return fmt.Sprintf("serve: batch of %d reports exceeds the maximum of %d", e.count, e.max)
}
