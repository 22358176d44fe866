package serve

import (
	"reflect"
	"strings"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
)

// TestWireRoundTripAllKinds is the regression test for the kindswitch
// finding in encodeContribution: the encode switch used to enumerate only
// the unary kinds, so a future kind with an auxiliary payload would have
// been dropped silently. Every registered kind must round-trip through the
// wire format bit-identically.
func TestWireRoundTripAllKinds(t *testing.T) {
	reports := []fo.Report{
		{Kind: fo.KindValue, Value: 3},
		{Kind: fo.KindUnary, Value: -1, Bits: []byte{1, 0, 0, 1, 0, 1, 1, 0}},
		{Kind: fo.KindPacked, Value: -1, Packed: packedLE(0xdeadbeef, 0x1)},
		{Kind: fo.KindHash, Value: 2, Seed: 0x9e3779b97f4a7c15},
		// Seed 0 is meaningful for both hash and cohort kinds: the kind
		// field, not a zero-seed heuristic, must drive decoding.
		{Kind: fo.KindHash, Value: 1, Seed: 0},
		{Kind: fo.KindCohort, Value: 1, Seed: 17},
		{Kind: fo.KindCohort, Value: 0, Seed: 0},
	}
	for _, r := range reports {
		w := encodeContribution(42, collect.Contribution{Report: r})
		if w.User != 42 || w.Kind != r.Kind.String() {
			t.Fatalf("%s: encoded envelope user=%d kind=%q", r.Kind, w.User, w.Kind)
		}
		c, err := contribution(w, false, false)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(c.Report, r) {
			t.Fatalf("%s: round trip changed the report: got %+v, want %+v", r.Kind, c.Report, r)
		}
	}
}

// TestWireEncodeUnknownKindPanics pins the failure mode for a kind the
// encoder does not know: a loud panic at the encode site, never a silently
// truncated report on the wire.
func TestWireEncodeUnknownKindPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("encoding an unknown kind did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "cannot encode report kind") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	encodeContribution(0, collect.Contribution{Report: fo.Report{Kind: fo.Kind(99)}})
}

// TestWireNumericRoundTrip covers the numeric envelope next to the
// categorical kinds.
func TestWireNumericRoundTrip(t *testing.T) {
	w := encodeContribution(7, collect.Contribution{Numeric: true, Value: -0.25})
	if w.Kind != "numeric" {
		t.Fatalf("numeric envelope kind %q", w.Kind)
	}
	c, err := contribution(w, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Numeric || c.Value != -0.25 {
		t.Fatalf("numeric round trip got %+v", c)
	}
}
