package numeric

import (
	"math"
	"testing"
	"testing/quick"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
)

// The one-shot perturbers are fo's (the Mean oracle's clients); these tests
// pin their statistics as the numeric streams' users see them.
func perturbers() []fo.Perturber { return []fo.Perturber{fo.Duchi{}, fo.Piecewise{}} }

func TestUnbiasedness(t *testing.T) {
	src := ldprand.New(11)
	for _, p := range perturbers() {
		for _, v := range []float64{-1, -0.5, 0, 0.3, 1} {
			const n = 200000
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += p.Perturb(v, 1.0, src)
			}
			mean := sum / n
			if math.Abs(mean-v) > 0.02 {
				t.Errorf("%s: E[perturb(%v)] = %v", p.Name(), v, mean)
			}
		}
	}
}

func TestEmpiricalVarianceWithinWorstBound(t *testing.T) {
	src := ldprand.New(13)
	for _, p := range perturbers() {
		for _, eps := range []float64{0.5, 1, 2} {
			worst := p.WorstVariance(eps)
			for _, v := range []float64{0, 0.5, 1} {
				const n = 100000
				sum, sumsq := 0.0, 0.0
				for i := 0; i < n; i++ {
					x := p.Perturb(v, eps, src)
					sum += x
					sumsq += x * x
				}
				mean := sum / n
				variance := sumsq/n - mean*mean
				if variance > worst*1.05 {
					t.Errorf("%s eps=%v v=%v: variance %v exceeds worst bound %v",
						p.Name(), eps, v, variance, worst)
				}
			}
		}
	}
}

func TestDuchiOutputsArePoles(t *testing.T) {
	src := ldprand.New(17)
	e := math.Exp(1.0)
	c := (e + 1) / (e - 1)
	for i := 0; i < 1000; i++ {
		out := fo.Duchi{}.Perturb(0.3, 1.0, src)
		if math.Abs(math.Abs(out)-c) > 1e-12 {
			t.Fatalf("duchi output %v not ±%v", out, c)
		}
	}
}

func TestPiecewiseOutputsInRange(t *testing.T) {
	src := ldprand.New(19)
	e2 := math.Exp(0.5)
	c := (e2 + 1) / (e2 - 1)
	f := func(vRaw int8) bool {
		v := float64(vRaw) / 128
		out := fo.Piecewise{}.Perturb(v, 1.0, src)
		return out >= -c-1e-9 && out <= c+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestPerturbPanicsOutOfRange(t *testing.T) {
	src := ldprand.New(23)
	for _, p := range perturbers() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted v=2", p.Name())
				}
			}()
			p.Perturb(2, 1, src)
		}()
	}
}

func TestBestPerturberCrossover(t *testing.T) {
	// Duchi wins at small eps, PM at large eps.
	if fo.BestPerturber(0.3).Name() != "Duchi" {
		t.Error("small-eps best should be Duchi")
	}
	if fo.BestPerturber(4.0).Name() != "Piecewise" {
		t.Error("large-eps best should be Piecewise")
	}
	for _, eps := range []float64{0.2, 1, 3, 5} {
		best := fo.BestPerturber(eps)
		for _, p := range perturbers() {
			if best.WorstVariance(eps) > p.WorstVariance(eps)+1e-12 {
				t.Errorf("fo.BestPerturber(%v)=%s beaten by %s", eps, best.Name(), p.Name())
			}
		}
	}
}

func TestWalkStreamBounds(t *testing.T) {
	src := ldprand.New(29)
	s := NewWalkStream(1000, 0.01, 0.3, 0.05, src)
	if s.N() != 1000 {
		t.Fatal("N")
	}
	buf := make([]float64, 1000)
	for i := 0; i < 50; i++ {
		vals, ok := s.Next(buf)
		if !ok {
			t.Fatal("walk stream ended")
		}
		for _, v := range vals {
			if v < -1 || v > 1 {
				t.Fatalf("value %v escaped [-1, 1]", v)
			}
		}
	}
}

func TestWalkStreamMeanOscillates(t *testing.T) {
	src := ldprand.New(31)
	s := NewWalkStream(20000, 0.001, 0.4, 0.1, src)
	var means []float64
	buf := make([]float64, 20000)
	for i := 0; i < 70; i++ { // > one period at rate 0.1
		vals, _ := s.Next(buf)
		means = append(means, Mean(vals))
	}
	minM, maxM := means[0], means[0]
	for _, m := range means {
		minM = math.Min(minM, m)
		maxM = math.Max(maxM, m)
	}
	if maxM-minM < 0.3 {
		t.Fatalf("mean barely moved: [%v, %v]", minM, maxM)
	}
}

// runMean builds the named mechanism over the Mean oracle and runs it for T
// timestamps of s, returning the released and true means.
func runMean(t *testing.T, name string, eps float64, w int, s Stream, T int, root *ldprand.Source) (released, truth []float64) {
	t.Helper()
	o := fo.NewMean()
	m, err := mechanism.New(name, mechanism.Params{Eps: eps, W: w, N: s.N(), Oracle: o, Src: root.Split()})
	if err != nil {
		t.Fatal(err)
	}
	released, truth, err = RunMean(m, o, s, T, root.Split())
	if err != nil {
		t.Fatal(err)
	}
	if len(released) != T {
		t.Fatalf("%s released %d of %d means", name, len(released), T)
	}
	return released, truth
}

// mae is the mean absolute error of released against truth.
func mae(released, truth []float64) float64 {
	sum := 0.0
	for i := range released {
		sum += math.Abs(released[i] - truth[i])
	}
	return sum / float64(len(released))
}

func TestMeanLPUTracksTruth(t *testing.T) {
	root := ldprand.New(37)
	n := 20000
	s := NewWalkStream(n, 0.001, 0.3, 0.05, root.Split())
	released, truth := runMean(t, "LPU", 1, 10, s, 100, root)
	if e := mae(released, truth); e > 0.15 {
		t.Fatalf("LPU MAE %v too large", e)
	}
}

func TestMeanLPABeatsLPUOnFlatStream(t *testing.T) {
	root := ldprand.New(41)
	n := 20000
	run := func(name string) float64 {
		s := NewWalkStream(n, 0.0001, 0.0, 0, ldprand.New(43).Split())
		released, truth := runMean(t, name, 1, 20, s, 150, root)
		mse := 0.0
		for i := range released {
			d := released[i] - truth[i]
			mse += d * d
		}
		return mse / float64(len(released))
	}
	lpu, lpa := run("LPU"), run("LPA")
	if lpa >= lpu {
		t.Fatalf("LPA MSE %v should beat LPU %v on a flat stream", lpa, lpu)
	}
}

// TestMeanLPAUserOncePerWindow: LPA's pool recycles users once their
// window expires, so a long run never exhausts it (Pool.Draw would fail
// the step).
func TestMeanLPAUserOncePerWindow(t *testing.T) {
	root := ldprand.New(47)
	s := NewWalkStream(4000, 0.01, 0.3, 0.1, root.Split())
	runMean(t, "LPA", 1, 8, s, 200, root)
}

// TestMeanParamsValidation: the mechanisms validate their parameters over
// the Mean oracle as over any other.
func TestMeanParamsValidation(t *testing.T) {
	p := func(eps float64, w, n int) mechanism.Params {
		return mechanism.Params{Eps: eps, W: w, N: n, Oracle: fo.NewMean(), Src: ldprand.New(1)}
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := mechanism.New("LPU", p(eps, 1, 1)); err == nil {
			t.Errorf("LPU accepted eps %v", eps)
		}
		if _, err := mechanism.New("LPA", p(eps, 1, 2)); err == nil {
			t.Errorf("LPA accepted eps %v", eps)
		}
	}
	if _, err := mechanism.New("LPU", p(1, 10, 5)); err == nil {
		t.Error("N < w accepted")
	}
	if _, err := mechanism.New("LPA", p(1, 10, 15)); err == nil {
		t.Error("N < 2w accepted")
	}
}

// TestEveryMechanismReleasesMeans runs each of the paper's seven methods
// over a WalkStream with the Mean oracle: every timestamp releases one
// finite mean that tracks the truth.
func TestEveryMechanismReleasesMeans(t *testing.T) {
	for _, name := range mechanism.Names {
		t.Run(name, func(t *testing.T) {
			root := ldprand.New(53)
			s := NewWalkStream(20000, 0.002, 0.3, 0.05, root.Split())
			released, truth := runMean(t, name, 2, 10, s, 60, root)
			for i, r := range released {
				if math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("t=%d: released %v", i+1, r)
				}
			}
			if e := mae(released, truth); e > 0.3 {
				t.Fatalf("%s MAE %v", name, e)
			}
		})
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

func BenchmarkDuchiPerturb(b *testing.B) {
	src := ldprand.New(1)
	for i := 0; i < b.N; i++ {
		fo.Duchi{}.Perturb(0.5, 1, src)
	}
}

func BenchmarkPiecewisePerturb(b *testing.B) {
	src := ldprand.New(1)
	for i := 0; i < b.N; i++ {
		fo.Piecewise{}.Perturb(0.5, 1, src)
	}
}
