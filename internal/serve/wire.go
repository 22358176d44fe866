package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"ldpids/internal/collect"
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
	// Numeric marks a numeric mean round instead of a frequency round.
	Numeric bool `json:"numeric,omitempty"`
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

// reportBatch is the JSON body of POST /v1/report: a batch of canonical
// reports (history.Report — the journal records exactly what the wire
// carried) for one round, authenticated by the round token. Bit-packed
// unary payloads travel as base64 of fo.Report.Packed's bytes.
type reportBatch struct {
	Round   int64            `json:"round"`
	Token   string           `json:"token"`
	Reports []history.Report `json:"reports"`
}

// chunk is one post's worth of a round's answers as the randomizers
// produced them: users[i] contributed contribs[i]. The binary wire encodes
// it as it stands (encodeBinary); the canonical batch is built only for a
// post that goes out as JSON.
type chunk struct {
	round    int64
	token    string
	users    []int
	contribs []collect.Contribution
}

// canonical renders the chunk as the JSON wire's batch.
func (k chunk) canonical() reportBatch {
	b := reportBatch{Round: k.round, Token: k.token, Reports: make([]history.Report, len(k.users))}
	for i, u := range k.users {
		b.Reports[i] = encodeContribution(u, k.contribs[i])
	}
	return b
}

// reportAck is the success response to a report batch.
type reportAck struct {
	Accepted int `json:"accepted"`
}

// wireBatch is one decoded POST /v1/report body, whichever wire carried
// it: what handleReport authenticates, folds and journals. On the binary
// wire token and the report payloads alias the pooled request buffer.
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

// decodeJSON reads one JSON batch. Whatever header fields decoded are
// returned even on error, for the refusal's journal record.
func decodeJSON(body io.Reader, maxBatch int) (wireBatch, error) {
	var jb reportBatch
	err := json.NewDecoder(body).Decode(&jb)
	if err == nil && len(jb.Reports) > maxBatch {
		err = batchTooLargeError{len(jb.Reports), maxBatch}
	}
	return wireBatch{round: jb.Round, token: []byte(jb.Token), reports: jb.Reports}, err
}

// encodeContribution renders one contribution for user u on the wire.
func encodeContribution(u int, c collect.Contribution) history.Report {
	if c.Numeric {
		return history.Report{User: u, Kind: "numeric", Num: c.Value}
	}
	r := c.Report
	w := history.Report{User: u, Kind: r.Kind.String(), Value: r.Value, Seed: r.Seed}
	// Every registered kind is enumerated: a kind this switch does not
	// know would silently drop its auxiliary payload on the wire (the
	// PR 1 OLH seed-0 bug class), so adding a kind must extend it.
	switch r.Kind {
	case fo.KindValue, fo.KindHash, fo.KindCohort:
		// The whole payload already travels in Value/Seed.
	case fo.KindUnary:
		w.Bits = r.Bits
	case fo.KindPacked:
		w.Packed = r.Packed
	default:
		panic(fmt.Sprintf("serve: cannot encode report kind %s", r.Kind))
	}
	return w
}

// contribution decodes a canonical report into what the round's sink
// absorbs. numeric says which round kind the report must answer;
// mismatches are rejected here, before the sink sees anything. alias is
// history.Report.Decode's: set only when the sink is known not to retain
// payload slices.
func contribution(r history.Report, numeric, alias bool) (collect.Contribution, error) {
	if numeric {
		if r.Kind != "numeric" {
			return collect.Contribution{}, fmt.Errorf("serve: %s report in a numeric round", r.Kind)
		}
		return collect.Contribution{Numeric: true, Value: r.Num}, nil
	}
	fr, err := r.Decode(alias)
	return collect.Contribution{Report: fr}, err
}
