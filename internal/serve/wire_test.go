package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ldpids/internal/fo"
	"ldpids/internal/history"
)

// reportBatch is the JSON wire's batch as encoding/json sees it: the
// reference the schema-specific codec (jsonwire.go) is held to, byte for
// byte when encoding and value for value when decoding.
type reportBatch struct {
	Round   int64            `json:"round"`
	Token   string           `json:"token"`
	Reports []history.Report `json:"reports"`
}

// canonical renders the chunk as the reference JSON batch.
func (k chunk) canonical() reportBatch {
	b := reportBatch{Round: k.round, Token: k.token, Reports: make([]history.Report, len(k.users))}
	for i, u := range k.users {
		b.Reports[i] = encodeReport(u, k.reports[i])
	}
	return b
}

// encodeReport renders user u's report as the reference batch carries it.
func encodeReport(u int, r fo.Report) history.Report {
	w := history.Report{User: u, Kind: r.Kind.String(), Value: r.Value, Seed: r.Seed}
	// Every registered kind is enumerated: a kind this switch does not
	// know would silently drop its auxiliary payload on the wire (the
	// OLH seed-0 bug class), so adding a kind must extend it.
	switch r.Kind {
	case fo.KindValue, fo.KindHash, fo.KindCohort:
		// The whole payload already travels in Value/Seed.
	case fo.KindPacked:
		w.Packed = r.Packed
	case fo.KindNumeric:
		w.Seed, w.Num = 0, math.Float64frombits(r.Seed)
	default:
		panic(fmt.Sprintf("serve: cannot encode report kind %s", r.Kind))
	}
	return w
}

// numericReport is a Mean-oracle report carrying x.
func numericReport(x float64) fo.Report {
	return fo.Report{Kind: fo.KindNumeric, Seed: math.Float64bits(x)}
}

// TestWireRoundTripAllKinds is the regression test for the kindswitch
// finding in the wire encoder: the encode switch used to enumerate only
// the unary (then two) kinds, so a future kind with an auxiliary payload would have
// been dropped silently. Every registered kind must round-trip through the
// wire format bit-identically.
func TestWireRoundTripAllKinds(t *testing.T) {
	reports := []fo.Report{
		{Kind: fo.KindValue, Value: 3},
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
