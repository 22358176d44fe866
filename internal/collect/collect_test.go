package collect_test

import (
	"math"
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/collect/collecttest"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

func specs() map[string]collecttest.Spec {
	return map[string]collecttest.Spec{
		"GRR":        {N: 40, Oracle: fo.NewGRR(6), BaseSeed: 1000},
		"OUE-packed": {N: 30, Oracle: fo.NewOUE(130), BaseSeed: 2000},
		"OLH":        {N: 25, Oracle: fo.NewOLH(12), BaseSeed: 3000},
		"OLH-C":      {N: 25, Oracle: fo.NewOLHC(12), BaseSeed: 4000},
		"Mean":       {N: 40, Oracle: fo.NewMean(), BaseSeed: 5000},
	}
}

func TestConformanceSim(t *testing.T) {
	for name, spec := range specs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			collecttest.Run(t, spec, func(t *testing.T) (collect.Collector, func()) {
				return &collect.Sim{Users: spec.N, Report: spec.Reporter()}, nil
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
	spec := collecttest.Spec{N: 8, Oracle: fo.NewGRR(4), BaseSeed: 11}
	backend := &framedSim{Sim: collect.Sim{Users: spec.N, Report: spec.Reporter()}, overhead: 13}
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
	// Mean rounds are framed too.
	mean := collecttest.Spec{N: 8, Oracle: fo.NewMean(), BaseSeed: 11}
	menv := collect.NewEnv(&framedSim{Sim: collect.Sim{Users: mean.N, Report: mean.Reporter()}, overhead: 13})
	menv.Advance(1)
	magg, err := mean.Oracle.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := menv.CollectStream([]int{0, 1}, 1.0, magg); err != nil {
		t.Fatal(err)
	}
	if got := menv.Stats().Bytes; got != 2*(8+13) {
		t.Fatalf("framed numeric bytes = %d, want %d", got, 2*(8+13))
	}
}

func TestNewRoundAggregator(t *testing.T) {
	oracle := fo.NewGRR(4)
	spec := collecttest.Spec{N: 4, Oracle: oracle, BaseSeed: 3}
	report := spec.Reporter()

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
		oracle := fo.NewOUE(70)
		spec := collecttest.Spec{N: 20, Oracle: oracle, BaseSeed: 5}
		env := collect.NewEnv(&stripedSim{Sim: collect.Sim{Users: spec.N, Report: spec.Reporter()}, stripes: stripes})
		ref := collect.NewEnv(&collect.Sim{Users: spec.N, Report: spec.Reporter()})

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

		other := fo.NewOUE(70)
		agg, err := env.NewRoundAggregator(other, 1)
		if err != nil {
			t.Fatal(err)
		}
		if agg == last {
			t.Fatalf("stripes=%d: another oracle got the previous oracle's aggregator", stripes)
		}
	}
}

// TestSinkKindMismatch: a sink refuses reports of another oracle's kind —
// a numeric report in a GRR round, a GRR report in a mean round.
func TestSinkKindMismatch(t *testing.T) {
	numeric := fo.NewMean().PerturbValue(0.5, 1, ldprand.New(1))
	freq := fo.Report{Kind: fo.KindValue, Value: 1}
	for _, tc := range []struct {
		o fo.Oracle
		r fo.Report
	}{{fo.NewGRR(2), numeric}, {fo.NewMean(), freq}} {
		agg, err := tc.o.NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := (collect.AggregatorSink{Agg: agg}).Absorb(tc.r); err == nil {
			t.Errorf("%s sink absorbed a %s report", tc.o.Name(), tc.r.Kind)
		}
	}
}

// TestContributionSize: the communication bill charges each contribution
// its report's size — a numeric report its float64, a GRR value 4 bytes.
func TestContributionSize(t *testing.T) {
	for _, tc := range []struct {
		o    fo.Oracle
		size int64
	}{{fo.NewMean(), 8}, {fo.NewGRR(4), 4}} {
		spec := collecttest.Spec{N: 3, Oracle: tc.o, BaseSeed: 9}
		env := collect.NewEnv(&collect.Sim{Users: spec.N, Report: spec.Reporter()})
		env.Advance(1)
		agg, err := tc.o.NewAggregator(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.CollectStream(nil, 1, agg); err != nil {
			t.Fatal(err)
		}
		if got := env.Stats().Bytes; got != 3*tc.size {
			t.Errorf("%s round of 3 billed %d bytes, want %d", tc.o.Name(), got, 3*tc.size)
		}
	}
}

// TestMeanAggregatorSink: the mean sink is an AggregatorSink over fo.Mean,
// whose estimate is the exact mean of the absorbed values.
func TestMeanAggregatorSink(t *testing.T) {
	agg, err := fo.NewMean().NewAggregator(1)
	if err != nil {
		t.Fatal(err)
	}
	s := collect.AggregatorSink{Agg: agg}
	for _, v := range []float64{0.1, 0.2, 0.3} {
		if err := s.Absorb(fo.Report{Kind: fo.KindNumeric, Seed: math.Float64bits(v)}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := agg.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	// 0.1+0.2+0.3 is 0.6000000000000001 in float64 addition; the exact sum
	// of the three doubles, divided by 3 and rounded once, is 0.2.
	if s.Count() != 3 || est[0] != 0.2 {
		t.Errorf("mean sink state: count=%d mean=%v", s.Count(), est[0])
	}
}

func TestEnvAccounting(t *testing.T) {
	spec := collecttest.Spec{N: 10, Oracle: fo.NewGRR(4), BaseSeed: 7}
	env := collect.NewEnv(&collect.Sim{Users: spec.N, Report: spec.Reporter()})

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
	agg2, err := spec.Oracle.NewAggregator(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.CollectStream([]int{0, 4}, 1.0, agg2); err != nil || agg2.Reports() != 2 {
		t.Fatalf("CollectStream: count=%d err=%v", agg2.Reports(), err)
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
