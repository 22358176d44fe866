package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// numericReport is a Mean-oracle report carrying x.
func numericReport(x float64) fo.Report {
	return fo.Report{Kind: fo.KindNumeric, Seed: math.Float64bits(x)}
}

// TestWireRoundTripAllKinds is the regression test for the kindswitch
// finding in the wire encoder: the encode switch used to enumerate only
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
		numericReport(-0.25),
	}
	for _, r := range reports {
		w := encodeReport(42, r)
		if w.User != 42 || w.Kind != r.Kind.String() {
			t.Fatalf("%s: encoded envelope user=%d kind=%q", r.Kind, w.User, w.Kind)
		}
		got, err := w.Decode(false)
		if err != nil {
			t.Fatalf("%s: decode: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s: round trip changed the report: got %+v, want %+v", r.Kind, got, r)
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
	encodeReport(0, fo.Report{Kind: fo.Kind(99)})
}

// TestWireNumericRoundTrip: a numeric report travels the JSON wire as
// {"kind":"numeric","num":x} — the envelope mean rounds always used — and
// decodes back to the same float64 bits.
func TestWireNumericRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.25, 5e-324, 2.1639534137386525, 1e300} {
		body, err := json.Marshal(encodeReport(7, numericReport(x)))
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"user":7,"kind":"numeric","num":`; !strings.HasPrefix(string(body), want) {
			t.Fatalf("numeric envelope %s, want prefix %s", body, want)
		}
		var w history.Report
		if err := json.Unmarshal(body, &w); err != nil {
			t.Fatal(err)
		}
		got, err := w.Decode(false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, numericReport(x)) {
			t.Fatalf("numeric round trip of %v got %+v", x, got)
		}
	}
}
