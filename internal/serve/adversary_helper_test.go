package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"time"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// Adversary is a hostile client for protocol testing: it hosts users
// like Client but, instead of a serve loop, exposes one method per
// attack — token replays, forged and stale tokens, duplicate reports,
// oversized batches, malformed bodies, mid-post disconnects, and
// binary-framing corruption (bad magic, truncated frames, lying length
// fields). Every
// attack returns the HTTP status the aggregator answered, so a test (or
// the offline checker, via the backend's ingest history) can prove each
// hostile request was refused and never influenced a counter. The
// adversary is deterministic: all randomness comes from its seed.
//
// Typical schedule: AwaitRound, Answer it honestly (arming Replay with
// the folded batch and StaleRound with the round's token), then fire
// attacks at the next round.
type Adversary struct {
	// PollWait is the long-poll parking time per AwaitRound. Zero
	// selects 10s.
	PollWait time.Duration

	base  string
	first int
	count int
	fns   Funcs
	src   *ldprand.Source
	hc    *http.Client

	last *RoundInfo   // most recently answered round (stale-token ammo)
	ammo *reportBatch // most recently folded batch (replay ammo)
}

// NewAdversary returns an adversary hosting users [first, first+count)
// against the aggregator at base. fns perturbs honest answers (attacks
// reuse their wire shape); seed drives forged tokens and report noise.
func NewAdversary(base string, first, count int, fns Funcs, seed uint64) (*Adversary, error) {
	if fns.Report == nil {
		return nil, fmt.Errorf("serve: adversary needs a report function")
	}
	if first < 0 || count < 1 {
		return nil, fmt.Errorf("serve: adversary needs a non-negative first id and positive count, got [%d,%d)", first, first+count)
	}
	if _, err := url.Parse(base); err != nil {
		return nil, fmt.Errorf("serve: bad base URL: %w", err)
	}
	return &Adversary{
		base:  base,
		first: first,
		count: count,
		fns:   fns,
		src:   ldprand.New(seed),
		hc:    &http.Client{},
	}, nil
}

// AwaitRound long-polls once for a round with id > after. It returns
// nil when the poll expires without a new round.
func (a *Adversary) AwaitRound(after int64) (*RoundInfo, error) {
	var ri RoundInfo
	status, err := LongPoll(context.Background(), a.hc, a.base+"/v1/round?", after, a.PollWait, &ri)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusOK:
		return &ri, nil
	case status == http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("serve: /v1/round returned status %d", status)
	}
}

// myUsers is the announced users this adversary hosts.
func (a *Adversary) myUsers(ri *RoundInfo) []int {
	return Hosted(ri.Users, a.first, a.first+a.count)
}

// chunkFor perturbs one honest chunk for the round's hosted users (or an
// explicit user list, with multiplicity).
func (a *Adversary) chunkFor(ri *RoundInfo, users []int) chunk {
	k := chunk{round: ri.Round, token: ri.Token, users: users}
	for _, u := range users {
		k.reports = append(k.reports, a.fns.Report(u, ri.T, ri.Eps))
	}
	return k
}

// batchFor is chunkFor as the JSON wire's batch.
func (a *Adversary) batchFor(ri *RoundInfo, users []int) reportBatch {
	return a.chunkFor(ri, users).canonical()
}

// Answer posts the adversary's honest share of a round, arming Replay
// with the posted batch and StaleRound with the round's token. It
// returns the HTTP status (200 when the batch folded).
func (a *Adversary) Answer(ri *RoundInfo) (int, error) {
	batch := a.batchFor(ri, a.myUsers(ri))
	status, err := a.post(batch)
	if err != nil {
		return 0, err
	}
	a.last = ri
	a.ammo = &batch
	return status, nil
}

// Replay reposts the last honestly folded batch verbatim: a captured
// token replay. The aggregator must refuse it — the round's per-user
// slots are consumed (409 while the round is open) or its token is
// stale (409 after it closed) — and fold nothing.
func (a *Adversary) Replay() (int, error) {
	if a.ammo == nil {
		return 0, fmt.Errorf("serve: no folded batch to replay (call Answer first)")
	}
	return a.post(*a.ammo)
}

// ForgeToken posts an honest-looking batch for the open round under a
// random token the aggregator never issued. It must be refused (409)
// with nothing folded.
func (a *Adversary) ForgeToken(ri *RoundInfo) (int, error) {
	users := a.myUsers(ri)
	if len(users) == 0 {
		users = []int{a.first}
	}
	batch := a.batchFor(ri, users[:1])
	batch.Token = fmt.Sprintf("%016x%016x", a.src.Uint64(), a.src.Uint64())
	return a.post(batch)
}

// StaleRound posts a fresh batch under a previous round's id and token
// while ri is open: a cross-round replay. It must be refused (409) with
// nothing folded.
func (a *Adversary) StaleRound(ri *RoundInfo) (int, error) {
	if a.last == nil || a.last.Round >= ri.Round {
		return 0, fmt.Errorf("serve: no earlier round to go stale with (call Answer on a previous round first)")
	}
	users := a.myUsers(a.last)
	if len(users) == 0 {
		users = []int{a.first}
	}
	batch := a.batchFor(a.last, users[:1])
	return a.post(batch)
}

// DoubleReport posts the same hosted user twice in one batch. The first
// report consumes the user's slot and folds; the duplicate must be
// refused (409) without folding, leaving the batch a partial fold the
// history checker can audit.
func (a *Adversary) DoubleReport(ri *RoundInfo, user int) (int, error) {
	return a.post(a.batchFor(ri, []int{user, user}))
}

// Oversized posts a batch one report above the aggregator's per-post
// cap. It must be refused (413) before any report is examined.
func (a *Adversary) Oversized(ri *RoundInfo, maxBatch int) (int, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	users := make([]int, maxBatch+1)
	for i := range users {
		users[i] = a.first + i%a.count
	}
	return a.post(a.batchFor(ri, users))
}

// Malformed posts a body that is not a report batch at all. It must be
// refused (400).
func (a *Adversary) Malformed() (int, error) {
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(a.src.Uint64())
	}
	resp, err := a.hc.Post(a.base+"/v1/report", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// TruncatedPost opens a raw connection, sends a report-batch request
// whose Content-Length promises more than it delivers, and disconnects
// mid-body — a client dying mid-post. The aggregator must treat the
// truncated batch as malformed (400, read on a parallel connection by
// the caller's history check) and fold nothing from it.
func (a *Adversary) TruncatedPost(ri *RoundInfo) error {
	u, err := url.Parse(a.base)
	if err != nil {
		return err
	}
	body, err := json.Marshal(a.batchFor(ri, a.myUsers(ri)))
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Promise the full batch, deliver half, hang up.
	half := body[:len(body)/2]
	_, err = fmt.Fprintf(conn, "POST /v1/report HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		u.Host, len(body), half)
	return err
}

// post sends one report batch, returning the HTTP status.
func (a *Adversary) post(batch reportBatch) (int, error) {
	body, err := json.Marshal(batch)
	if err != nil {
		return 0, err
	}
	resp, err := a.hc.Post(a.base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// ---------------------------------------------------------------------------
// Binary-wire attacks: each builds an honest binary batch for the round
// and corrupts exactly one framing property, so the refusal pins the
// specific validation that caught it.
// ---------------------------------------------------------------------------

// binaryAmmo encodes an honest binary batch for the round's hosted users.
func (a *Adversary) binaryAmmo(ri *RoundInfo) ([]byte, error) {
	users := a.myUsers(ri)
	if len(users) == 0 {
		users = []int{a.first}
	}
	return a.chunkFor(ri, users).encodeBinary(nil)
}

// postBinary sends raw bytes under the binary content type.
func (a *Adversary) postBinary(body []byte) (int, error) {
	resp, err := a.hc.Post(a.base+"/v1/report", ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// BinaryBadMagic posts an honest binary batch whose magic bytes are
// corrupted. It must be refused (400) before any report is examined.
func (a *Adversary) BinaryBadMagic(ri *RoundInfo) (int, error) {
	body, err := a.binaryAmmo(ri)
	if err != nil {
		return 0, err
	}
	body[0] ^= 0xff
	return a.postBinary(body)
}

// BinaryTruncated posts an honest binary batch cut off mid-word — the
// Content-Length is honest for the truncated body, so the framing itself
// is the lie. It must be refused (400) with nothing folded, even though
// a prefix of its reports parses cleanly.
func (a *Adversary) BinaryTruncated(ri *RoundInfo) (int, error) {
	body, err := a.binaryAmmo(ri)
	if err != nil {
		return 0, err
	}
	if len(body) < 4 {
		return 0, fmt.Errorf("serve: binary batch too short to truncate")
	}
	return a.postBinary(body[:len(body)-3])
}

// BinaryLengthLie posts a binary batch whose packed report inflates its
// word-count field far past the bytes actually present. The bounds check
// must refuse it (400) instead of reading out of the frame.
func (a *Adversary) BinaryLengthLie(ri *RoundInfo) (int, error) {
	body, err := chunk{round: ri.Round, token: ri.Token, users: []int{a.first}, reports: []fo.Report{
		{Kind: fo.KindPacked, Value: -1, Packed: make([]byte, 8)},
	}}.encodeBinary(nil)
	if err != nil {
		return 0, err
	}
	// The word count is the 4 bytes before the report's 8 payload bytes;
	// claim 2^30 words with one word present.
	binary.LittleEndian.PutUint32(body[len(body)-12:], 1<<30)
	return a.postBinary(body)
}

// HostileMean posts, on the binary wire, a numeric report whose value is
// NaN — which the JSON wire cannot carry — for the adversary's user. The
// fold must refuse it (422) before it touches a counter, and leave the
// user's report slot open.
func (a *Adversary) HostileMean(ri *RoundInfo) (int, error) {
	body, err := chunk{round: ri.Round, token: ri.Token, users: []int{a.first}, reports: []fo.Report{
		{Kind: fo.KindNumeric, Seed: math.Float64bits(math.NaN())},
	}}.encodeBinary(nil)
	if err != nil {
		return 0, err
	}
	return a.postBinary(body)
}
