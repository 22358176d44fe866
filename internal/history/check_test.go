package history

import (
	"strings"
	"testing"

	"ldpids/internal/fo"
)

// grrCounters folds GRR value reports through the real oracle so the
// synthetic close records carry exactly reachable counters.
func grrCounters(t *testing.T, d int, eps float64, values []int) *Frame {
	t.Helper()
	o := fo.NewGRR(d)
	agg, err := o.NewAggregator(eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		if err := agg.Add(fo.Report{Kind: fo.KindValue, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fo.ExportCounters(agg)
	if err != nil {
		t.Fatal(err)
	}
	return FrameOf(f)
}

// grrReports renders one value report per (user, value) pair.
func grrReports(users, values []int) []Report {
	out := make([]Report, len(users))
	for i, u := range users {
		out[i] = Report{User: u, Kind: "value", Value: values[i]}
	}
	return out
}

// okHistory is a minimal valid gateway history: one full-population GRR
// round, accepted in one batch, closed ok, released.
func okHistory(t *testing.T) []Record {
	t.Helper()
	users := []int{0, 1, 2, 3}
	values := []int{1, 0, 3, 1}
	return []Record{
		{Kind: KindConfig, Source: "gateway", N: 4, D: 4, Oracle: "GRR", W: 2, Budget: 1},
		{Kind: KindRound, Round: 1, Token: "tok-1", T: 1, Eps: 0.5, All: true},
		{Kind: KindBatch, Round: 1, Token: "tok-1", Verdict: VerdictAccepted, Status: 200,
			Folded: 4, Reports: grrReports(users, values)},
		{Kind: KindClose, Round: 1, T: 1, OK: true, Counters: grrCounters(t, 4, 0.5, values)},
		{Kind: KindRelease, T: 1, Values: []float64{1, 1, 0, 1}},
	}
}

// wantViolation replays recs and requires a violation containing want.
func wantViolation(t *testing.T, recs []Record, want string) {
	t.Helper()
	res := Check(recs)
	for _, v := range res.Violations {
		if strings.Contains(v, want) {
			return
		}
	}
	t.Fatalf("no violation containing %q; got %q", want, res.Violations)
}

func TestCheckOKHistory(t *testing.T) {
	res := Check(okHistory(t))
	if !res.OK() {
		t.Fatalf("valid history must pass, got %q", res.Violations)
	}
	s := res.Summary
	if s.Rounds != 1 || s.OKRounds != 1 || s.AcceptedBatches != 1 || s.FoldedReports != 4 || s.Releases != 1 {
		t.Fatalf("summary miscounts the replay: %+v", s)
	}
}

func TestCheckEmptyHistory(t *testing.T) {
	wantViolation(t, nil, "empty history")
}

func TestCheckConfigMustBeFirst(t *testing.T) {
	recs := okHistory(t)
	wantViolation(t, append(recs[1:2], recs...), "before the config record")
}

// Invariant 1: round ids strictly increase, one round open at a time.
func TestCheckRoundMonotonic(t *testing.T) {
	recs := okHistory(t)
	replayed := append(append([]Record{}, recs...),
		Record{Kind: KindRound, Round: 1, Token: "tok-x", T: 2, Eps: 0.5, All: true})
	wantViolation(t, replayed, "ids must strictly increase")

	overlapping := append(append([]Record{}, recs[:2]...),
		Record{Kind: KindRound, Round: 2, Token: "tok-2", T: 2, Eps: 0.5, All: true})
	wantViolation(t, overlapping, "still open")
}

// Invariant 2: tokens are fresh across rounds and never empty.
func TestCheckTokenFresh(t *testing.T) {
	recs := okHistory(t)
	reuse := append(append([]Record{}, recs...),
		Record{Kind: KindRound, Round: 2, Token: "tok-1", T: 2, Eps: 0.5, All: true})
	wantViolation(t, reuse, "reuses round 1's token")

	empty := append(append([]Record{}, recs...),
		Record{Kind: KindRound, Round: 2, Token: "", T: 2, Eps: 0.5, All: true})
	wantViolation(t, empty, "empty token")
}

// Invariant 3: nothing is accepted outside the open round's (id, token).
func TestCheckAcceptInRound(t *testing.T) {
	recs := okHistory(t)
	forged := append([]Record{}, recs...)
	forged[2].Token = "forged"
	wantViolation(t, forged, "accepted outside the open round")

	// An acceptance after the round closed is a cross-round replay.
	replay := append(append([]Record{}, recs...), recs[2])
	wantViolation(t, replay, "accepted outside the open round")
}

// Invariant 4: per-user report slots and ok-round completeness.
func TestCheckReportSlots(t *testing.T) {
	doubled := okHistory(t)
	doubled[2].Reports = grrReports([]int{0, 0, 2, 3}, []int{1, 0, 3, 1})
	wantViolation(t, doubled, "double fold")

	short := okHistory(t)
	short[2].Reports = grrReports([]int{0, 1, 2}, []int{1, 0, 3})
	short[2].Folded = 3
	short[3].Counters = grrCounters(t, 4, 0.5, []int{1, 0, 3})
	wantViolation(t, short, "requested reports missing")
}

// Invariant 5: refusals never influence counters.
func TestCheckRefusedNoInfluence(t *testing.T) {
	recs := okHistory(t)
	refused := append(append([]Record{}, recs[:3]...),
		Record{Kind: KindBatch, Round: 1, Token: "tok-1", Verdict: VerdictRefused,
			Reason: ReasonStaleToken, Status: 409, Folded: 1,
			Reports: grrReports([]int{0}, []int{1})})
	wantViolation(t, append(refused, recs[3:]...), "refusals must not influence counters")
}

// Invariant 6: no user exceeds the window budget.
func TestCheckEpsBudget(t *testing.T) {
	values := []int{1, 0, 3, 1}
	recs := []Record{
		{Kind: KindConfig, Source: "gateway", N: 4, D: 4, Oracle: "GRR", W: 2, Budget: 1},
	}
	// Two adjacent rounds at eps 0.8 each: any 2-window sums to 1.6 > 1.
	for i := 1; i <= 2; i++ {
		tok := []string{"", "tok-1", "tok-2"}[i]
		recs = append(recs,
			Record{Kind: KindRound, Round: int64(i), Token: tok, T: i, Eps: 0.8, All: true},
			Record{Kind: KindBatch, Round: int64(i), Token: tok, Verdict: VerdictAccepted,
				Status: 200, Folded: 4, Reports: grrReports([]int{0, 1, 2, 3}, values)},
			Record{Kind: KindClose, Round: int64(i), T: i, OK: true, Counters: grrCounters(t, 4, 0.8, values)},
		)
	}
	wantViolation(t, recs, "exceeding the budget")
}

// Invariant 6: a round at an earlier timestamp than one already charged
// breaks the window accounting.
func TestCheckEpsBudgetTimestampDecreases(t *testing.T) {
	recs := okHistory(t)
	for i := range recs[1:] {
		recs[1+i].T = 2
	}
	values := []int{1, 0, 3, 1}
	recs = append(recs,
		Record{Kind: KindRound, Round: 2, Token: "tok-2", T: 1, Eps: 0.1, All: true},
		Record{Kind: KindBatch, Round: 2, Token: "tok-2", Verdict: VerdictAccepted,
			Status: 200, Folded: 4, Reports: grrReports([]int{0, 1, 2, 3}, values)},
		Record{Kind: KindClose, Round: 2, T: 1, OK: true, Counters: grrCounters(t, 4, 0.1, values)},
	)
	wantViolation(t, recs, "user 0 charged at t=1 after t=2: timestamps must not decrease")
}

// Invariant 7: ok counters are bit-identical to a refold.
func TestCheckRefold(t *testing.T) {
	recs := okHistory(t)
	recs[3].Counters.Counts[0]++
	wantViolation(t, recs, "not reachable from the accepted reports")
}

// coordHistory is a minimal valid coordinator history: one round fed by
// two shard frames, closed with their merge.
func coordHistory(t *testing.T) []Record {
	t.Helper()
	lo := grrCounters(t, 4, 0.5, []int{1, 0})
	hi := grrCounters(t, 4, 0.5, []int{3, 1})
	return []Record{
		{Kind: KindConfig, Source: "coordinator", N: 4, D: 4, Oracle: "GRR", W: 2, Budget: 1},
		{Kind: KindRound, Round: 1, Token: "tok-1", T: 1, Eps: 0.5, All: true},
		{Kind: KindFrame, Round: 1, Token: "tok-1", Verdict: VerdictAccepted, Status: 200,
			Replica: "rep-a", Lo: 0, Hi: 2, Frame: lo},
		{Kind: KindFrame, Round: 1, Token: "tok-1", Verdict: VerdictAccepted, Status: 200,
			Replica: "rep-b", Lo: 2, Hi: 4, Frame: hi},
		{Kind: KindClose, Round: 1, T: 1, OK: true, Counters: grrCounters(t, 4, 0.5, []int{1, 0, 3, 1})},
		{Kind: KindRelease, T: 1, Values: []float64{1, 1, 0, 1}},
	}
}

func TestCheckCoordinatorHistory(t *testing.T) {
	res := Check(coordHistory(t))
	if !res.OK() {
		t.Fatalf("valid coordinator history must pass, got %q", res.Violations)
	}
	if res.Summary.AcceptedFrames != 2 {
		t.Fatalf("summary miscounts frames: %+v", res.Summary)
	}
}

// Invariant 6 on a coordinator: an accepted frame charges its shard's
// requested users, so two adjacent rounds at eps 0.8 overrun a budget of 1
// with no batch in the history.
func TestCheckCoordinatorEpsBudget(t *testing.T) {
	recs := coordHistory(t)[:1]
	for i := 1; i <= 2; i++ {
		tok := []string{"", "tok-1", "tok-2"}[i]
		recs = append(recs,
			Record{Kind: KindRound, Round: int64(i), Token: tok, T: i, Eps: 0.8, All: true},
			Record{Kind: KindFrame, Round: int64(i), Token: tok, Verdict: VerdictAccepted, Status: 200,
				Replica: "rep-a", Lo: 0, Hi: 2, Frame: grrCounters(t, 4, 0.8, []int{1, 0})},
			Record{Kind: KindFrame, Round: int64(i), Token: tok, Verdict: VerdictAccepted, Status: 200,
				Replica: "rep-b", Lo: 2, Hi: 4, Frame: grrCounters(t, 4, 0.8, []int{3, 1})},
			Record{Kind: KindClose, Round: int64(i), T: i, OK: true, Counters: grrCounters(t, 4, 0.8, []int{1, 0, 3, 1})},
		)
	}
	res := Check(recs)
	if len(res.Violations) != 4 {
		t.Fatalf("want one budget violation per user, got %q", res.Violations)
	}
	wantViolation(t, recs, "user 3 spends eps 1.6 over window (0,2], exceeding the budget 1")

	// A sampled round charges only its requested users.
	recs[5].All, recs[5].Users = false, []int{1, 2}
	res = Check(recs)
	if len(res.Violations) != 2 || !strings.Contains(res.Violations[0], "user 1 ") || !strings.Contains(res.Violations[1], "user 2 ") {
		t.Fatalf("want violations for users 1 and 2 only, got %q", res.Violations)
	}
}

// Invariant 8: accepted shards exactly partition the population.
func TestCheckShardPartition(t *testing.T) {
	gap := coordHistory(t)
	wantViolation(t, append(gap[:3], gap[4:]...), "cover [0:2), want [0:4)")

	overlap := coordHistory(t)
	overlap[3].Lo, overlap[3].Hi = 1, 4
	wantViolation(t, overlap, "overlaps accepted shard")
}

// Invariant 9: releases cohere with round outcomes.
func TestCheckReleaseCoherence(t *testing.T) {
	recs := okHistory(t)
	outOfOrder := append(append([]Record{}, recs...),
		Record{Kind: KindRelease, T: 1, Values: []float64{1, 1, 0, 1}})
	wantViolation(t, outOfOrder, "timestamps must strictly increase")

	// t=2 had no ok round: the release must repeat t=1's verbatim.
	drifting := append(append([]Record{}, recs...),
		Record{Kind: KindRelease, T: 2, Values: []float64{2, 1, 0, 1}})
	wantViolation(t, drifting, "despite no completed round")

	approximated := append(append([]Record{}, recs...),
		Record{Kind: KindRelease, T: 2, Values: []float64{1, 1, 0, 1}})
	if res := Check(approximated); !res.OK() {
		t.Fatalf("verbatim approximation republish must pass, got %q", res.Violations)
	}
}

// A failed round makes no completeness or counter claims, and a history
// interrupted mid-round (no close for the last round) is not a
// violation.
func TestCheckFailedAndInterruptedRounds(t *testing.T) {
	failed := okHistory(t)[:2]
	failed = append(failed,
		Record{Kind: KindClose, Round: 1, T: 1, Err: "round timed out"})
	if res := Check(failed); !res.OK() {
		t.Fatalf("failed round must pass unchecked, got %q", res.Violations)
	}

	interrupted := okHistory(t)
	interrupted = append(interrupted,
		Record{Kind: KindRound, Round: 2, Token: "tok-2", T: 2, Eps: 0.5, All: true})
	if res := Check(interrupted); !res.OK() {
		t.Fatalf("interrupted trailing round must pass, got %q", res.Violations)
	}
}
