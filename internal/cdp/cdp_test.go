package cdp

import (
	"math"
	"testing"

	"ldpids/internal/ldprand"
	"ldpids/internal/metrics"
	"ldpids/internal/stream"
	"ldpids/internal/window"
)

func params(eps float64, w, n int, seed uint64) Params {
	return Params{Eps: eps, W: w, N: n, Src: ldprand.New(seed)}
}

// truthStream builds T true histograms from a Sin binary stream.
func truthStream(n, T int, seed uint64) [][]float64 {
	src := ldprand.New(seed)
	s := stream.NewBinaryStream(n, stream.DefaultSin(), src)
	return stream.Histograms(stream.Materialize(s, T), 2)
}

func TestUniformUnbiasedAndNoisy(t *testing.T) {
	truth := truthStream(10000, 50, 31)
	rel := Run(NewUniform(params(1, 10, 10000, 32)), truth, nil)
	if len(rel) != 50 {
		t.Fatal("release length")
	}
	// Releases should differ from truth (noise present) but track it.
	if metrics.MAE(rel, truth) == 0 {
		t.Fatal("uniform CDP released exact truth")
	}
	if metrics.MAE(rel, truth) > 0.05 {
		t.Fatalf("uniform CDP error implausibly large: %v", metrics.MAE(rel, truth))
	}
}

func TestSampleApproximatesBetweenSamples(t *testing.T) {
	truth := truthStream(5000, 20, 33)
	rel := Run(NewSample(params(1, 5, 5000, 34)), truth, nil)
	for ts := 0; ts < 20; ts++ {
		if ts%5 == 0 {
			continue
		}
		for k := range rel[ts] {
			if rel[ts][k] != rel[ts-1][k] {
				t.Fatalf("sample changed release at non-sampling t=%d", ts)
			}
		}
	}
}

func TestBDAndBATrackTruth(t *testing.T) {
	truth := truthStream(20000, 100, 35)
	for _, m := range []Mechanism{
		NewBD(params(1, 10, 20000, 36)),
		NewBA(params(1, 10, 20000, 37)),
	} {
		rel := Run(m, truth, nil)
		mae := metrics.MAE(rel, truth)
		if mae > 0.05 {
			t.Errorf("%s MAE %v too large", m.Name(), mae)
		}
	}
}

func TestAdaptiveBeatsUniformOnFlatStreamCDP(t *testing.T) {
	// A flat stream rewards approximation: BA should beat Uniform.
	src := ldprand.New(38)
	s := stream.NewBinaryStream(20000, stream.NewSin(0.0005, 0.01, 0.1), src)
	truth := stream.Histograms(stream.Materialize(s, 120), 2)
	uni := metrics.MSE(Run(NewUniform(params(1, 20, 20000, 39)), truth, nil), truth)
	ba := metrics.MSE(Run(NewBA(params(1, 20, 20000, 40)), truth, nil), truth)
	if ba >= uni {
		t.Fatalf("BA MSE %v not below Uniform %v on flat stream", ba, uni)
	}
}

func TestCDPBeatsLDPAtSameBudget(t *testing.T) {
	// Sanity cross-check of the trust models: CDP noise is much smaller
	// than LDP noise at the same eps. Compare per-element MSE of a
	// single uniform release step.
	n := 10000
	truth := truthStream(n, 30, 41)
	cdpRel := Run(NewUniform(params(1, 10, n, 42)), truth, nil)
	cdpMSE := metrics.MSE(cdpRel, truth)
	// LDP GRR at eps/w=0.1 with n users: variance ~ (e^0.1)/(n(e^0.1-1)^2).
	e := math.Exp(0.1)
	ldpVar := e / (float64(n) * (e - 1) * (e - 1))
	if cdpMSE >= ldpVar {
		t.Fatalf("CDP MSE %v not below LDP variance %v", cdpMSE, ldpVar)
	}
}

func TestLaplaceReleaseScale(t *testing.T) {
	// Empirical std of the release noise must match sqrt(2)·scale.
	src := ldprand.New(43)
	c := make([]float64, 10000)
	rel := laplaceRelease(c, 0.5, 0.01, src)
	sum, sumsq := 0.0, 0.0
	for _, v := range rel {
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(len(rel))
	variance := sumsq/float64(len(rel)) - mean*mean
	want := 2 * (0.01 / 0.5) * (0.01 / 0.5)
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("laplace release variance %v want %v", variance, want)
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params accepted")
		}
	}()
	NewUniform(Params{Eps: -1, W: 1, N: 1, Src: ldprand.New(1)})
}

// TestAuditedAtTruncatingPoint charges every timestamp's spend to every
// user through a window.Accountant: no window of w timestamps spends more
// than ε. At ε = 1, w = 11 a BA claim kept in ε truncated (3u)/u to 2
// earmarks, so the span after such a publication came out one timestamp
// short and the next publication overspent the window by ε/2w.
func TestAuditedAtTruncatingPoint(t *testing.T) {
	const eps, w, n = 1, 11, 2000
	for seed := uint64(1); seed <= 30; seed++ {
		truth := truthStream(n, 300, seed)
		for _, m := range []Mechanism{
			NewUniform(params(eps, w, n, seed)), NewSample(params(eps, w, n, seed)),
			NewBD(params(eps, w, n, seed)), NewBA(params(eps, w, n, seed)),
		} {
			acct := window.NewAccountant(eps, w)
			Run(m, truth, acct)
			if v := acct.Violations(); len(v) > 0 {
				t.Errorf("%s seed %d: %d violations, first: %v", m.Name(), seed, len(v), v[0])
			}
		}
	}
}
