package history

import (
	"fmt"
	"sort"

	"ldpids/internal/fo"
	"ldpids/internal/window"
)

// The checker proves these invariants over a replayed history:
//
//  1. round-monotonic — round ids strictly increase and at most one
//     round is open at a time.
//  2. token-fresh — every round's token is non-empty and never reused by
//     a later round.
//  3. accept-in-round — accepted batches and frames carry exactly the
//     open round's (id, token): a replayed, forged, or stale token is
//     never accepted, in-round or across rounds.
//  4. report-slots — no user folds more reports into a round than the
//     round requested of them, and a round that closed ok received every
//     requested report.
//  5. refused-no-influence — a batch refused before the fold loop
//     (malformed, oversized, stale token, closed round) folded nothing;
//     a mid-batch refusal's folded prefix landed in the open round only.
//  6. eps-budget — no user's folded reports exceed the configured ε
//     budget over any window of W consecutive timestamps, and rounds
//     never charge a timestamp earlier than one already charged. A
//     report is charged when it folds: a batch's reports at the gateway
//     that folded them, an accepted frame's shard at the coordinator.
//  7. refold — an ok round's closing counters are bit-identical
//     to re-folding its accepted report multiset (or re-merging its
//     accepted frames) from scratch.
//  8. shard-partition — the accepted frames of an ok coordinator round
//     exactly partition [0, n): no gap, no overlap, no duplicate shard.
//  9. release-coherence — release timestamps strictly increase, and a
//     release at a timestamp with no ok round repeats the previous
//     release bit-for-bit (the mechanisms' approximation step).

// Summary counts what the checker replayed.
type Summary struct {
	// Source echoes the config record's role.
	Source string
	// Rounds counts announced rounds; OKRounds those that closed ok.
	Rounds, OKRounds int
	// AcceptedBatches/RefusedBatches count batch verdicts; FoldedReports
	// the reports folded into sinks (accepted batches plus refused
	// batches' folded prefixes).
	AcceptedBatches, RefusedBatches, FoldedReports int
	// AcceptedFrames, RefusedFrames, and FailedFrames count frame
	// shipment verdicts.
	AcceptedFrames, RefusedFrames, FailedFrames int
	// Releases counts release records.
	Releases int
	// Refusals counts refused batches and frames per reason.
	Refusals map[string]int
}

// Result is one history's verdict: the replay summary and every
// invariant violation found. An empty Violations slice is a proof that
// the log satisfies the checker's invariants.
type Result struct {
	Summary    Summary
	Violations []string
}

// OK reports whether the history passed.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// openRound is the checker's state for the currently open round.
type openRound struct {
	rec     Record
	pending map[int]int // outstanding report slots per user
	total   int
	folded  []Report // reports folded, in log order
	frames  []Record // accepted frame shipments
}

// checker replays one history.
type checker struct {
	res    *Result
	cfg    *Record
	oracle fo.Oracle // nil until a valid config arrives

	tokens    map[string]int64 // round token -> round id
	lastRound int64
	open      *openRound

	acct     *window.Accountant // invariant 6; nil without a window
	okRounds map[int]bool       // timestamp -> an ok round closed there
	lastRel  *Record
}

// Check replays the history and proves the package's invariants,
// returning the replay summary and every violation found. It never
// errors: a structurally unreadable log already fails in ReadAll, and
// everything else is a violation.
func Check(recs []Record) *Result {
	c := &checker{
		res:      &Result{Summary: Summary{Refusals: make(map[string]int)}},
		tokens:   make(map[string]int64),
		okRounds: make(map[int]bool),
	}
	if len(recs) == 0 {
		c.violate("empty history: no records")
		return c.res
	}
	for i, rec := range recs {
		switch rec.Kind {
		case KindConfig:
			c.config(i, rec)
		case KindRound:
			c.round(rec)
		case KindBatch:
			c.batch(rec)
		case KindFrame:
			c.frame(rec)
		case KindClose:
			c.close(rec)
		case KindRelease:
			c.release(rec)
		default:
			c.violate("record %d: unknown kind %q", i, rec.Kind)
		}
	}
	// A round left open at EOF is an interrupted run, not a violation:
	// rounds are serial, so only the final one can be unclosed.
	c.checkBudget()
	return c.res
}

func (c *checker) violate(format string, args ...any) {
	c.res.Violations = append(c.res.Violations, fmt.Sprintf(format, args...))
}

// config handles the mandatory first record.
func (c *checker) config(i int, rec Record) {
	if i != 0 {
		c.violate("record %d: config record must be first", i)
		return
	}
	if rec.N < 1 || rec.D < 1 {
		c.violate("config: population %d and domain %d must be positive", rec.N, rec.D)
		return
	}
	cfg := rec
	c.cfg = &cfg
	c.res.Summary.Source = rec.Source
	// W == 0 (replica logs, which cannot know the deployment window)
	// disables invariant 6.
	if rec.W > 0 && rec.Budget > 0 {
		c.acct = window.NewAccountant(rec.Budget, rec.W)
	}
	if o, err := fo.New(rec.Oracle, rec.D); err == nil {
		c.oracle = o
	} else {
		c.violate("config: %v (refold checks disabled)", err)
	}
}

// round opens a new round.
func (c *checker) round(rec Record) {
	c.res.Summary.Rounds++
	if c.cfg == nil {
		c.violate("round %d announced before the config record", rec.Round)
		return
	}
	if c.open != nil {
		c.violate("round %d announced while round %d is still open", rec.Round, c.open.rec.Round)
		c.open = nil
	}
	if rec.Round <= c.lastRound {
		c.violate("round %d announced after round %d: ids must strictly increase", rec.Round, c.lastRound)
	}
	c.lastRound = max(c.lastRound, rec.Round)
	if rec.Token == "" {
		c.violate("round %d announced with an empty token", rec.Round)
	} else if prev, dup := c.tokens[rec.Token]; dup {
		c.violate("round %d reuses round %d's token %q", rec.Round, prev, rec.Token)
	} else {
		c.tokens[rec.Token] = rec.Round
	}
	if rec.Eps <= 0 {
		c.violate("round %d announced with non-positive eps %v", rec.Round, rec.Eps)
	}
	o := &openRound{rec: rec, pending: make(map[int]int)}
	if rec.All {
		for u := 0; u < c.cfg.N; u++ {
			o.pending[u] = 1
		}
		o.total = c.cfg.N
	} else {
		for _, u := range rec.Users {
			if u < 0 || u >= c.cfg.N {
				c.violate("round %d requests unknown user %d (population %d)", rec.Round, u, c.cfg.N)
				continue
			}
			o.pending[u]++
			o.total++
		}
	}
	c.open = o
}

// matchesOpen reports whether the record's (round, token) authenticates
// against the open round.
func (c *checker) matchesOpen(rec Record) bool {
	return c.open != nil && rec.Round == c.open.rec.Round && rec.Token == c.open.rec.Token
}

// batch handles one report-batch outcome.
func (c *checker) batch(rec Record) {
	switch rec.Verdict {
	case VerdictAccepted:
		c.res.Summary.AcceptedBatches++
		if !c.matchesOpen(rec) {
			c.violate("batch for round %d accepted outside the open round (token %q): replayed or cross-round acceptance", rec.Round, rec.Token)
			return
		}
		if rec.Folded != len(rec.Reports) {
			c.violate("round %d: accepted batch records %d reports but folded %d", rec.Round, len(rec.Reports), rec.Folded)
		}
		c.fold(rec.Reports)
	case VerdictRefused:
		c.res.Summary.RefusedBatches++
		c.res.Summary.Refusals[rec.Reason]++
		if rec.Folded == 0 {
			return
		}
		// Invariant 5: only a mid-batch refusal (bad report, exhausted
		// slot) may leave a folded prefix, and only in the open round.
		switch rec.Reason {
		case ReasonBadReport, ReasonNotAwaited, ReasonRoundClosed:
		default:
			c.violate("round %d: batch refused as %q yet folded %d reports: refusals must not influence counters", rec.Round, rec.Reason, rec.Folded)
		}
		if !c.matchesOpen(rec) {
			c.violate("round %d: refused batch folded %d reports outside the open round", rec.Round, rec.Folded)
			return
		}
		if len(rec.Reports) != rec.Folded {
			c.violate("round %d: refused batch records %d reports but folded %d", rec.Round, len(rec.Reports), rec.Folded)
		}
		c.fold(rec.Reports)
	default:
		c.violate("round %d: batch with unknown verdict %q", rec.Round, rec.Verdict)
	}
}

// fold charges folded reports against the open round's slots and the
// users' budgets.
func (c *checker) fold(reports []Report) {
	o := c.open
	for _, r := range reports {
		c.res.Summary.FoldedReports++
		if o.pending[r.User] == 0 {
			c.violate("round %d: user %d folded more reports than requested (double fold)", o.rec.Round, r.User)
		} else {
			o.pending[r.User]--
		}
		// Budget is charged at fold time: a report consumed the user's
		// randomness even if its round later failed.
		c.charge(r.User)
	}
	o.folded = append(o.folded, reports...)
}

// frame handles one counter-frame shipment outcome.
func (c *checker) frame(rec Record) {
	switch rec.Verdict {
	case VerdictAccepted:
		c.res.Summary.AcceptedFrames++
		if !c.matchesOpen(rec) {
			c.violate("frame for round %d from %q accepted outside the open round: stale or replayed shipment", rec.Round, rec.Replica)
			return
		}
		if rec.Frame == nil {
			c.violate("round %d: accepted frame from %q carries no counters", rec.Round, rec.Replica)
			return
		}
		for _, prev := range c.open.frames {
			if rec.Lo < prev.Hi && prev.Lo < rec.Hi {
				c.violate("round %d: shard [%d:%d) of %q overlaps accepted shard [%d:%d) of %q (duplicate or overlapping shipment)",
					rec.Round, rec.Lo, rec.Hi, rec.Replica, prev.Lo, prev.Hi, prev.Replica)
			}
		}
		// The frame carries its shard's folds: charge the round's
		// requested users inside [Lo, Hi), the batches' fold-time rule.
		if c.open.rec.All {
			for u := max(rec.Lo, 0); u < min(rec.Hi, c.cfg.N); u++ {
				c.charge(u)
			}
		} else {
			for _, u := range c.open.rec.Users {
				if rec.Lo <= u && u < rec.Hi {
					c.charge(u)
				}
			}
		}
		c.open.frames = append(c.open.frames, rec)
	case VerdictRefused:
		c.res.Summary.RefusedFrames++
		c.res.Summary.Refusals[rec.Reason]++
	case VerdictFailed:
		c.res.Summary.FailedFrames++
		c.res.Summary.Refusals[rec.Reason]++
	default:
		c.violate("round %d: frame with unknown verdict %q", rec.Round, rec.Verdict)
	}
}

// close handles the end of a round.
func (c *checker) close(rec Record) {
	o := c.open
	c.open = nil
	if o == nil || rec.Round != o.rec.Round {
		c.violate("close for round %d does not match the open round", rec.Round)
		return
	}
	if !rec.OK {
		return // failed rounds carry no completeness or counter claims
	}
	c.res.Summary.OKRounds++
	c.okRounds[o.rec.T] = true
	// Invariant 4 (completeness): an ok round heard from everyone. On a
	// coordinator the individual reports fold at the replicas — a round
	// fed by frame shipments answers completeness with invariant 8's
	// exact shard partition instead of per-user report slots.
	if missing := c.missing(o); missing > 0 && len(o.frames) == 0 {
		c.violate("round %d closed ok with %d of %d requested reports missing", rec.Round, missing, o.total)
	}
	if c.oracle == nil {
		return // config was unusable; already reported
	}
	if rec.Counters == nil {
		c.violate("round %d closed ok without counters", rec.Round)
		return
	}
	if len(o.frames) > 0 {
		c.refoldFrames(rec, o)
		return
	}
	c.refoldReports(rec, o)
}

// missing sums the open round's unconsumed report slots.
func (c *checker) missing(o *openRound) int {
	n := 0
	for _, k := range o.pending {
		n += k
	}
	return n
}

// refoldReports proves invariant 7 for a batch-fed round: re-fold the
// accepted report multiset into a fresh aggregator and compare counters
// bit-exactly.
func (c *checker) refoldReports(rec Record, o *openRound) {
	agg, err := c.oracle.NewAggregator(o.rec.Eps)
	if err != nil {
		c.violate("round %d: cannot build a refold aggregator: %v", rec.Round, err)
		return
	}
	for _, r := range o.folded {
		fr, err := r.Decode(true) // aggregators do not retain payloads
		if err != nil {
			c.violate("round %d: accepted report from user %d is undecodable: %v", rec.Round, r.User, err)
			return
		}
		if err := agg.Add(fr); err != nil {
			c.violate("round %d: accepted report from user %d does not refold: %v", rec.Round, r.User, err)
			return
		}
	}
	c.compareCounters(rec, agg)
}

// refoldFrames proves invariants 7 and 8 for a frame-fed (coordinator)
// round: the accepted shards exactly partition [0, n), and re-merging
// the frames reproduces the closing counters bit-exactly.
func (c *checker) refoldFrames(rec Record, o *openRound) {
	frames := append([]Record(nil), o.frames...)
	sort.Slice(frames, func(i, j int) bool { return frames[i].Lo < frames[j].Lo })
	expect := 0
	for _, f := range frames {
		if f.Lo != expect {
			c.violate("round %d: accepted shards do not partition [0:%d): gap or overlap at user %d (shard [%d:%d) of %q)",
				rec.Round, c.cfg.N, expect, f.Lo, f.Hi, f.Replica)
			return
		}
		expect = f.Hi
	}
	if expect != c.cfg.N {
		c.violate("round %d: accepted shards cover [0:%d), want [0:%d)", rec.Round, expect, c.cfg.N)
		return
	}
	agg, err := c.oracle.NewAggregator(o.rec.Eps)
	if err != nil {
		c.violate("round %d: cannot build a refold aggregator: %v", rec.Round, err)
		return
	}
	for _, f := range frames {
		cf, err := f.Frame.CounterFrame()
		if err != nil {
			c.violate("round %d: accepted frame from %q: %v", rec.Round, f.Replica, err)
			return
		}
		if err := fo.MergeCounters(agg, cf); err != nil {
			c.violate("round %d: accepted frame from %q does not re-merge: %v", rec.Round, f.Replica, err)
			return
		}
	}
	c.compareCounters(rec, agg)
}

// compareCounters exports the refolded aggregator and compares it
// bit-exactly against the close record's counters.
func (c *checker) compareCounters(rec Record, agg fo.Aggregator) {
	exported, err := fo.ExportCounters(agg)
	if err != nil {
		c.violate("round %d: refold aggregator cannot export counters: %v", rec.Round, err)
		return
	}
	if !rec.Counters.Equal(exported) {
		c.violate("round %d: closing counters are not reachable from the accepted reports: logged %s n=%d, refolded %s n=%d",
			rec.Round, rec.Counters.Shape, rec.Counters.N, exported.Shape, exported.N)
	}
}

// release proves invariant 9.
func (c *checker) release(rec Record) {
	c.res.Summary.Releases++
	if c.lastRel != nil && rec.T <= c.lastRel.T {
		c.violate("release at t=%d after release at t=%d: timestamps must strictly increase", rec.T, c.lastRel.T)
	}
	if !c.okRounds[rec.T] {
		// No round completed at this timestamp: the mechanism must have
		// approximated, republishing the previous release verbatim.
		if c.lastRel == nil {
			c.violate("release at t=%d with no completed round and no previous release to repeat", rec.T)
		} else if !sameValues(rec.Values, c.lastRel.Values) {
			c.violate("release at t=%d differs from the previous release despite no completed round at t=%d", rec.T, rec.T)
		}
	}
	r := rec
	c.lastRel = &r
}

// sameValues compares two releases bit-for-bit.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// charge bills user u one report at the open round's (t, ε).
func (c *checker) charge(u int) {
	if c.acct != nil {
		c.acct.Charge(c.open.rec.T, u, c.open.rec.Eps)
	}
}

// checkBudget reports invariant 6: each user's first violating charge.
func (c *checker) checkBudget() {
	if c.acct == nil {
		return
	}
	seen := make(map[int]bool)
	for _, v := range c.acct.Violations() {
		if !seen[v.User] {
			seen[v.User] = true // one violation per user keeps the output readable
			c.violate("%v", v)
		}
	}
}
