package history

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// legacyUnary is a gateway journal written by a release that still sent
// OUE as one byte per domain element ("kind":"unary", "bits"): n = 30,
// d = 70, LPA over T = 6 timestamps on the JSON wire.
const legacyUnary = "testdata/legacy-oue-unary.jsonl"

// TestCheckLegacyUnaryJournal proves journals from before OUE and SUE
// reported packed bits stay checkable: the fixture replays clean, and a
// unary record whose bits do not span exactly d elements — one short, or
// one past d with that byte set — is a violation naming its user.
func TestCheckLegacyUnaryJournal(t *testing.T) {
	recs, err := ReadAll(legacyUnary)
	if err != nil {
		t.Fatal(err)
	}
	if res := Check(recs); !res.OK() || res.Summary.FoldedReports != 30 {
		t.Fatalf("legacy journal: %q (summary %+v)", res.Violations, res.Summary)
	}
	i := slices.IndexFunc(recs, func(r Record) bool {
		return r.Kind == KindBatch && r.Verdict == VerdictAccepted && r.Reports[0].Kind == "unary"
	})
	if i < 0 {
		t.Fatal("fixture holds no accepted unary batch")
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"one-short":  func(b []byte) []byte { return b[:len(b)-1] },
		"set-past-d": func(b []byte) []byte { return append(b, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			mut := slices.Clone(recs)
			mut[i].Reports = slices.Clone(mut[i].Reports)
			r := &mut[i].Reports[0]
			r.Bits = mutate(slices.Clone(r.Bits))
			res := Check(mut)
			want := fmt.Sprintf("user %d", r.User)
			if !slices.ContainsFunc(res.Violations, func(v string) bool { return strings.Contains(v, want) }) {
				t.Fatalf("no violation naming %s; got %q", want, res.Violations)
			}
		})
	}
}
