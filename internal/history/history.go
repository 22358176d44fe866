// Package history records and verifies the gateway's observable ingest
// history. Following the black-box checking approach of PAPERS.md
// (Efficient Black-box Checking of Snapshot Isolation), the running
// aggregator is treated as a black box: serve.Backend and
// cluster.Coordinator append one structured Record per protocol event —
// round announcements, accepted and refused report batches, counter-frame
// shipments, round closes, releases — and Check replays the log offline,
// proving the protocol invariants the live code enforces only at the
// point of enforcement (see the checker's invariant list in check.go).
//
// The log is an internal/jsonl file, one Record per line: single-write
// O_APPEND appends, so a crash can damage at most the final line, which
// ReadAll drops, while a bad line in the middle of the file (impossible
// under append-only writes) is reported as corruption — which is what
// makes the CI mutation step bite. Append on a nil *Log is a no-op, and
// write failures are sticky (surfaced by Err and Close) rather than
// failing the ingestion request that triggered them.
package history

import (
	"bytes"
	"fmt"
	"math"

	"ldpids/internal/fo"
	"ldpids/internal/jsonl"
)

// Record kinds, in the Kind field of every record.
const (
	// KindConfig is the first record of every log: the deployment
	// parameters the checker verifies against.
	KindConfig = "config"
	// KindRound is one round announcement (id, token, timestamp, budget,
	// requested users).
	KindRound = "round"
	// KindBatch is one POST /v1/report outcome: an accepted batch with
	// its full report payload, or a refusal with its machine-readable
	// reason and the prefix of reports folded before the refusal.
	KindBatch = "batch"
	// KindFrame is one replica counter-frame shipment outcome at the
	// coordinator.
	KindFrame = "frame"
	// KindClose is the end of one round: ok with the sink's exported
	// counters, or failed with the error.
	KindClose = "close"
	// KindRelease is one published release (timestamp and values).
	KindRelease = "release"
)

// Verdicts of batch and frame records.
const (
	// VerdictAccepted marks a batch or frame folded into the round.
	VerdictAccepted = "accepted"
	// VerdictRefused marks a batch or frame the protocol refused.
	VerdictRefused = "refused"
	// VerdictFailed marks a frame shipment that reported a replica-side
	// round failure instead of counters.
	VerdictFailed = "failed"
)

// Machine-readable refusal reasons. Batch reasons before ReasonBadReport
// are pre-fold refusals and must never carry folded reports.
const (
	// ReasonMalformed is an undecodable request body.
	ReasonMalformed = "malformed"
	// ReasonBodyTooLarge is a request body over the byte cap.
	ReasonBodyTooLarge = "body-too-large"
	// ReasonBatchTooLarge is a batch over the report-count cap.
	ReasonBatchTooLarge = "batch-too-large"
	// ReasonUnsupportedWire is a batch posted under a content type the
	// server does not speak (415; the client falls back to JSON). The
	// body is never read, so the record carries no round or token.
	ReasonUnsupportedWire = "unsupported-wire"
	// ReasonStaleToken is a batch or frame whose (round, token) pair does
	// not authenticate against the open round: a replay, a forgery, or a
	// post into a closed round.
	ReasonStaleToken = "stale-token"
	// ReasonRoundClosed is a batch or frame that authenticated but
	// arrived after the round finished.
	ReasonRoundClosed = "round-closed"
	// ReasonBadReport is an undecodable report inside an otherwise
	// well-formed batch, or one the round's aggregator refused (wrong kind
	// or shape, a mean value out of bounds) before touching a counter.
	ReasonBadReport = "bad-report"
	// ReasonNotAwaited is a report from a user with no outstanding
	// report slot (not requested, or already reported — a double report).
	ReasonNotAwaited = "not-awaited"
	// ReasonBadFrame is a counter frame that failed validation.
	ReasonBadFrame = "bad-frame"
	// ReasonNotParticipant is a frame from a replica outside the round's
	// frozen participant set.
	ReasonNotParticipant = "not-participant"
	// ReasonDuplicate is a second frame from the same replica for the
	// same round.
	ReasonDuplicate = "duplicate"
	// ReasonReplicaError is a shipment carrying a replica-side round
	// failure.
	ReasonReplicaError = "replica-error"
)

// Record is one history line. Kind selects which fields are meaningful;
// unused fields stay at their zero value and are omitted from the JSON.
type Record struct {
	Kind string `json:"kind"`

	// Config fields.

	// Source names the writing process role: "gateway" (single-process
	// serve backend), "coordinator", or "replica".
	Source string `json:"source,omitempty"`
	// N is the population size.
	N int `json:"n,omitempty"`
	// D is the domain size.
	D int `json:"d,omitempty"`
	// Oracle is the frequency oracle name (fo.Names).
	Oracle string `json:"oracle,omitempty"`
	// W is the sliding-window length; 0 disables the checker's per-user
	// budget accounting (replicas see only their shard's rounds and
	// cannot know the deployment window).
	W int `json:"w,omitempty"`
	// Budget is the per-window privacy budget ε when W > 0.
	Budget float64 `json:"budget,omitempty"`

	// Round identification, shared by round, batch, frame, and close
	// records. On refusals it is the pair the request claimed, verbatim.
	Round int64  `json:"round,omitempty"`
	Token string `json:"token,omitempty"`

	// Round fields (T also on close and release records).

	// T is the mechanism timestamp.
	T int `json:"t,omitempty"`
	// Eps is the round's privacy budget.
	Eps float64 `json:"eps,omitempty"`
	// All marks a whole-population round (Users elided); an absent Users
	// with All false means an empty request.
	All bool `json:"all,omitempty"`
	// Users lists the requested user ids, in request order and with
	// multiplicity.
	Users []int `json:"users,omitempty"`

	// Batch and frame fields.

	// Verdict is VerdictAccepted, VerdictRefused, or VerdictFailed.
	Verdict string `json:"verdict,omitempty"`
	// Reason is the machine-readable refusal reason.
	Reason string `json:"reason,omitempty"`
	// Status is the HTTP status answered.
	Status int `json:"status,omitempty"`
	// Reports carries the folded reports: the whole batch when accepted,
	// the folded prefix when a mid-batch refusal left earlier reports in
	// the sink.
	Reports []Report `json:"reports,omitempty"`
	// Folded is the number of the batch's reports folded into the sink.
	Folded int `json:"folded,omitempty"`
	// Bytes is the request body size read.
	Bytes int64 `json:"bytes,omitempty"`

	// Frame fields.

	// Replica names the shipping replica; Lo and Hi bound its shard.
	Replica string `json:"replica,omitempty"`
	Lo      int    `json:"lo,omitempty"`
	Hi      int    `json:"hi,omitempty"`
	// Frame is the shipped counter frame (accepted shipments).
	Frame *Frame `json:"frame,omitempty"`

	// Close fields.

	// OK marks a completed round; a false OK carries Err.
	OK bool `json:"ok,omitempty"`
	// Err is the round failure.
	Err string `json:"err,omitempty"`
	// Counters is the round sink's exported counter state (ok rounds
	// only).
	Counters *Frame `json:"counters,omitempty"`

	// Release fields (with T).

	// Values is the released histogram (one element, the mean, under the
	// Mean oracle).
	Values []float64 `json:"values,omitempty"`
}

// Report is the one canonical report shape: one user's perturbed
// contribution exactly as it travels in a JSON POST /v1/report body, as
// the binary wire decodes to, and as the log records it, so what the
// checker refolds is what the handler folded by construction. Kind is
// fo.Kind's name and selects the payload as it does.
type Report struct {
	User int    `json:"user"`
	Kind string `json:"kind"`
	// Value is the categorical payload (GRR value, OLH/OLH-C bucket; -1
	// for unary/packed reports, matching the in-memory representation).
	Value int `json:"value,omitempty"`
	// Seed is the OLH per-user seed or the OLH-C cohort index.
	Seed uint64 `json:"seed,omitempty"`
	// Bits is the byte-per-element unary payload (base64 in JSON).
	Bits []byte `json:"bits,omitempty"`
	// Packed is the bit-packed unary payload, fo.Report.Packed's
	// little-endian bytes as they are (base64 in JSON).
	Packed []byte `json:"packed,omitempty"`
	// Num is a numeric report's perturbed value (fo.Report.Seed's bits).
	Num float64 `json:"num,omitempty"`
}

// Decode parses the report into the fo.Report the aggregators fold; it is
// the one place kind names map to fo.Kind. Payloads are already in fo's
// layout (Packed is fo.Report.Packed byte for byte, a numeric value becomes
// Seed's bits), so own-or-alias is the only choice left: with alias the
// result's Bits and Packed are r's — allocation-free, and valid only while
// r's are, which suits fo's aggregators: they do not retain payload slices
// — and without it they are copies a sink may keep.
func (r Report) Decode(alias bool) (fo.Report, error) {
	out := fo.Report{Value: r.Value, Seed: r.Seed}
	switch r.Kind {
	case "value":
		out.Kind = fo.KindValue
	case "unary":
		out.Kind = fo.KindUnary
		out.Bits = r.Bits
	case "packed":
		out.Kind = fo.KindPacked
		if len(r.Packed)%8 != 0 {
			return fo.Report{}, fmt.Errorf("history: packed payload of %d bytes is not a whole number of words", len(r.Packed))
		}
		out.Packed = r.Packed
	case "hash":
		out.Kind = fo.KindHash
	case "cohort":
		out.Kind = fo.KindCohort
	case "numeric":
		out.Kind, out.Seed = fo.KindNumeric, math.Float64bits(r.Num)
	default:
		return fo.Report{}, fmt.Errorf("history: unknown report kind %q", r.Kind)
	}
	if !alias {
		out.Bits, out.Packed = bytes.Clone(out.Bits), bytes.Clone(out.Packed)
	}
	return out, nil
}

// Frame is a logged fo.CounterFrame: the integer counter state of one
// aggregator or shipment, with the shape spelled out as a string so the
// log stays readable with text tools.
type Frame struct {
	Shape  string  `json:"shape"`
	N      int     `json:"n"`
	K      int     `json:"k,omitempty"`
	G      int     `json:"g,omitempty"`
	Counts []int64 `json:"counts"`
}

// FrameOf converts a counter frame for logging. The record aliases
// f.Counts rather than copying it: Log.Append serializes a record before
// it returns, so the frame only has to stay untouched until then.
func FrameOf(f fo.CounterFrame) *Frame {
	counts := f.Counts
	if len(counts) == 0 {
		counts = nil // logged as null, whatever storage the frame kept
	}
	return &Frame{Shape: f.Shape.String(), N: f.N, K: f.K, G: f.G, Counts: counts}
}

// CounterFrame converts the logged frame back, rejecting unknown shapes.
func (f *Frame) CounterFrame() (fo.CounterFrame, error) {
	out := fo.CounterFrame{N: f.N, K: f.K, G: f.G, Counts: f.Counts}
	switch f.Shape {
	case fo.FrameCounts.String():
		out.Shape = fo.FrameCounts
	case fo.FrameCohort.String():
		out.Shape = fo.FrameCohort
	default:
		return fo.CounterFrame{}, fmt.Errorf("history: unknown frame shape %q", f.Shape)
	}
	return out, nil
}

// Equal reports whether the logged frame is bit-identical to g.
func (f *Frame) Equal(g fo.CounterFrame) bool {
	if f == nil {
		return false
	}
	if f.Shape != g.Shape.String() || f.N != g.N || f.K != g.K || f.G != g.G || len(f.Counts) != len(g.Counts) {
		return false
	}
	for i, v := range f.Counts {
		if v != g.Counts[i] {
			return false
		}
	}
	return true
}

// Log is an open ingest log: a jsonl.Appender of Records, so every method
// is safe for concurrent use and on a nil receiver (no-ops) and append
// failures stick instead of failing the request that logged.
type Log = jsonl.Appender[Record]

// Create truncates (or creates) the log at path and opens it for
// appending.
func Create(path string) (*Log, error) {
	return jsonl.Create[Record](path)
}

// ReadAll parses the log at path. A torn final line (a crash mid-append)
// is dropped; a torn, undecodable or kind-less line anywhere else cannot
// result from append-only writes and is reported as corruption.
func ReadAll(path string) ([]Record, error) {
	return jsonl.Read(path, func(rec *Record) bool { return rec.Kind != "" })
}
