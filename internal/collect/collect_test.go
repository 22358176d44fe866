package collect_test

import (
	"math"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
)

func specs() map[string]collecttest.Spec {
	return map[string]collecttest.Spec{
		"GRR":        {N: 40, Oracle: fo.NewGRR(6), BaseSeed: 1000, Numeric: true},
		"OUE-packed": {N: 30, Oracle: fo.NewOUEPacked(130), BaseSeed: 2000},
		"OLH":        {N: 25, Oracle: fo.NewOLH(12), BaseSeed: 3000},
		"OLH-C":      {N: 25, Oracle: fo.NewOLHC(12), BaseSeed: 4000},
	}
}

func TestConformanceSim(t *testing.T) {
	for name, spec := range specs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			collecttest.Run(t, spec, func(t *testing.T) (collect.Collector, func()) {
				report, numeric := spec.Reporters()
				return &collect.Sim{Users: spec.N, Report: report, NumericReport: numeric}, nil
			})
		})
	}
}

// framedSim wraps Sim with a fixed per-contribution framing overhead, like
// a network backend.
type framedSim struct {
	collect.Sim
	overhead int
}

func (f *framedSim) FrameOverhead(payload int) int { return f.overhead }

// stripedSim wraps Sim advertising concurrent ingestion.
type stripedSim struct {
	collect.Sim
	stripes int
}

func (s *stripedSim) PreferredStripes() int { return s.stripes }

// sizingAggregator sums the payload bytes of the reports folded through it.
type sizingAggregator struct {
	fo.Aggregator
	bytes int
}

func (a *sizingAggregator) Add(r fo.Report) error {
	a.bytes += r.Size()
	return a.Aggregator.Add(r)
}

func TestEnvFramingAccounting(t *testing.T) {
	spec := collecttest.Spec{N: 8, Oracle: fo.NewGRR(4), BaseSeed: 11, Numeric: true}
	report, numeric := spec.Reporters()
	backend := &framedSim{Sim: collect.Sim{Users: spec.N, Report: report, NumericReport: numeric}, overhead: 13}
	env := collect.NewEnv(backend)

	env.Advance(1)
	agg, err := spec.Oracle.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	sized := &sizingAggregator{Aggregator: agg}
	if err := env.CollectStream(nil, 1.0, sized); err != nil {
		t.Fatal(err)
	}
	payload := sized.bytes
	stats := env.Stats()
	want := int64(payload + 13*spec.N)
	if stats.Bytes != want {
		t.Fatalf("framed bytes = %d, want payload %d + overhead %d = %d", stats.Bytes, payload, 13*spec.N, want)
	}
	// Numeric rounds are framed too.
	env.Advance(2)
	if _, _, err := env.CollectMean([]int{0, 1}, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := env.Stats().Bytes - stats.Bytes; got != 2*(8+13) {
		t.Fatalf("framed numeric bytes = %d, want %d", got, 2*(8+13))
	}
}

func TestNewRoundAggregator(t *testing.T) {
	oracle := fo.NewGRR(4)
	spec := collecttest.Spec{N: 4, Oracle: oracle, BaseSeed: 3}
	report, _ := spec.Reporters()

	// Plain backends get the oracle's serialized aggregator.
	plainEnv := collect.NewEnv(&collect.Sim{Users: spec.N, Report: report})
	agg, err := plainEnv.NewRoundAggregator(oracle, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := agg.(*fo.StripedAggregator); ok {
		t.Fatal("plain backend got a striped aggregator")
	}

	// Backends advertising concurrent ingestion get a striped one.
	stripedEnv := collect.NewEnv(&stripedSim{Sim: collect.Sim{Users: spec.N, Report: report}, stripes: 3})
	agg, err = stripedEnv.NewRoundAggregator(oracle, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := agg.(*fo.StripedAggregator)
	if !ok {
		t.Fatalf("striper backend got %T, want *fo.StripedAggregator", agg)
	}
	if sa.Stripes() != 3 {
		t.Fatalf("striped aggregator has %d stripes, want 3", sa.Stripes())
	}

	// A striper preferring < 2 stripes falls back to the plain aggregator.
	oneEnv := collect.NewEnv(&stripedSim{Sim: collect.Sim{Users: spec.N, Report: report}, stripes: 1})
	agg, err = oneEnv.NewRoundAggregator(oracle, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := agg.(*fo.StripedAggregator); ok {
		t.Fatal("single-stripe striper got a striped aggregator")
	}
}

// TestEnvResetsRoundAggregator: Env re-arms the round aggregator it handed out
// last once the CollectStream folding into it has returned, and each
// re-armed round estimates bit for bit what a fresh aggregator fed the same
// reports does. Two calls with no CollectStream between them, or a change
// of oracle, get distinct aggregators.
func TestEnvResetsRoundAggregator(t *testing.T) {
	for _, stripes := range []int{1, 3} {
		oracle := fo.NewOUEPacked(70)
		spec := collecttest.Spec{N: 20, Oracle: oracle, BaseSeed: 5}
		report, _ := spec.Reporters()
		env := collect.NewEnv(&stripedSim{Sim: collect.Sim{Users: spec.N, Report: report}, stripes: stripes})
		refReport, _ := spec.Reporters()
		ref := collect.NewEnv(&collect.Sim{Users: spec.N, Report: refReport})

		env.Advance(1)
		first, err := env.NewRoundAggregator(oracle, 1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := env.NewRoundAggregator(oracle, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first == second {
			t.Fatalf("stripes=%d: two calls with no CollectStream between them returned one aggregator", stripes)
		}

		var last fo.Aggregator
		for i, rd := range []struct {
			users []int
			eps   float64
		}{{nil, 1}, {[]int{1, 4, 7}, 0.5}, {[]int{99}, 0.5}, {nil, 2.5}, {[]int{3, 3, 19}, 1}} {
			env.Advance(i + 1)
			ref.Advance(i + 1)
			agg, err := env.NewRoundAggregator(oracle, rd.eps)
			if err != nil {
				t.Fatal(err)
			}
			if last != nil && agg != last {
				t.Fatalf("stripes=%d round %d: a fresh aggregator where the idle one should be re-armed", stripes, i)
			}
			last = agg
			want, err := oracle.NewAggregator(rd.eps)
			if err != nil {
				t.Fatal(err)
			}
			err = env.CollectStream(rd.users, rd.eps, agg)
			if refErr := ref.CollectStream(rd.users, rd.eps, want); (err == nil) != (refErr == nil) {
				t.Fatalf("stripes=%d round %d: CollectStream = %v, reference %v", stripes, i, err, refErr)
			}
			if err != nil {
				continue // a refused round leaves the aggregator idle too
			}
			got, err := agg.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			wantEst, err := want.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			for k := range wantEst {
				if math.Float64bits(got[k]) != math.Float64bits(wantEst[k]) {
					t.Fatalf("stripes=%d round %d: estimate[%d] = %v re-armed, %v fresh", stripes, i, k, got[k], wantEst[k])
				}
			}
		}

		other := fo.NewOUEPacked(70)
		agg, err := env.NewRoundAggregator(other, 1)
		if err != nil {
			t.Fatal(err)
		}
		if agg == last {
			t.Fatalf("stripes=%d: another oracle got the previous oracle's aggregator", stripes)
		}
	}
}

func TestSinkKindMismatch(t *testing.T) {
	numeric := collect.Contribution{Numeric: true, Value: 0.5}
	freq := collect.Contribution{Report: fo.Report{Kind: fo.KindValue, Value: 1}}

	if err := (&collecttest.SliceSink{}).Absorb(numeric); err == nil {
		t.Error("SliceSink absorbed a numeric contribution")
	}
	if err := (&collect.MeanSink{}).Absorb(freq); err == nil {
		t.Error("MeanSink absorbed a frequency report")
	}
	agg, err := fo.NewGRR(2).NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := (collect.AggregatorSink{Agg: agg}).Absorb(numeric); err == nil {
		t.Error("AggregatorSink absorbed a numeric contribution")
	}
}

func TestContributionSize(t *testing.T) {
	if got := (collect.Contribution{Numeric: true, Value: 1}).Size(); got != 8 {
		t.Errorf("numeric contribution size %d, want 8", got)
	}
	r := fo.Report{Kind: fo.KindValue, Value: 3}
	if got := (collect.Contribution{Report: r}).Size(); got != r.Size() {
		t.Errorf("frequency contribution size %d, want %d", got, r.Size())
	}
}

func TestMeanSink(t *testing.T) {
	s := &collect.MeanSink{}
	if s.Mean() != 0 {
		t.Error("empty mean not 0")
	}
	for _, v := range []float64{1, 2, 3} {
		if err := s.Absorb(collect.Contribution{Numeric: true, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Count() != 3 || s.Mean() != 2 || s.Sum() != 6 {
		t.Errorf("mean sink state: count=%d sum=%v mean=%v", s.Count(), s.Sum(), s.Mean())
	}
}

func TestEnvAccounting(t *testing.T) {
	spec := collecttest.Spec{N: 10, Oracle: fo.NewGRR(4), BaseSeed: 7, Numeric: true}
	report, numeric := spec.Reporters()
	env := collect.NewEnv(&collect.Sim{Users: spec.N, Report: report, NumericReport: numeric})

	var observed int
	env.Observer = func(t int, users []int, eps float64) { observed++ }

	env.Advance(1)
	agg, err := spec.Oracle.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.CollectStream(nil, 1.0, agg); err != nil {
		t.Fatal(err)
	}
	if agg.Reports() != spec.N {
		t.Fatalf("collected %d reports, want %d", agg.Reports(), spec.N)
	}
	if err := env.CollectStream([]int{1, 2, 3}, 1.0, agg); err != nil {
		t.Fatal(err)
	}
	if agg.Reports() != spec.N+3 {
		t.Fatalf("streamed %d more reports, want 3", agg.Reports()-spec.N)
	}
	env.Advance(2)
	if _, count, err := env.CollectMean([]int{0, 4}, 1.0); err != nil || count != 2 {
		t.Fatalf("CollectMean: count=%d err=%v", count, err)
	}
	if observed != 3 {
		t.Fatalf("observer saw %d rounds, want 3", observed)
	}
	stats := env.Stats()
	if stats.N != spec.N || stats.Timestamps != 2 || stats.Reports != int64(spec.N+3+2) || stats.Bytes == 0 {
		t.Fatalf("comm stats: %+v", stats)
	}
	// Invalid rounds error before reaching the observer or the backend.
	if err := env.CollectStream(nil, 0, agg); err == nil {
		t.Fatal("zero eps accepted")
	}
	if err := env.CollectStream([]int{99}, 1, agg); err == nil {
		t.Fatal("unknown user accepted")
	}
	if observed != 3 {
		t.Fatalf("observer saw invalid rounds: %d", observed)
	}
}
