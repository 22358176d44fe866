package numeric

import (
	"math"
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

func perturbers() []Perturber { return []Perturber{Duchi{}, Piecewise{}} }

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
		out := Duchi{}.Perturb(0.3, 1.0, src)
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
		out := Piecewise{}.Perturb(v, 1.0, src)
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
	if BestPerturber(0.3).Name() != "Duchi" {
		t.Error("small-eps best should be Duchi")
	}
	if BestPerturber(4.0).Name() != "Piecewise" {
		t.Error("large-eps best should be Piecewise")
	}
	for _, eps := range []float64{0.2, 1, 3, 5} {
		best := BestPerturber(eps)
		for _, p := range perturbers() {
			if best.WorstVariance(eps) > p.WorstVariance(eps)+1e-12 {
				t.Errorf("BestPerturber(%v)=%s beaten by %s", eps, best.Name(), p.Name())
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

func TestMeanLPUTracksTruth(t *testing.T) {
	root := ldprand.New(37)
	n := 20000
	s := NewWalkStream(n, 0.001, 0.3, 0.05, root.Split())
	p := MeanParams{Eps: 1, W: 10, N: n, Src: root.Split()}
	m, err := NewMeanLPU(p)
	if err != nil {
		t.Fatal(err)
	}
	released, truth, err := RunMean(m, s, 100, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(released) != 100 {
		t.Fatal("run length")
	}
	mae := 0.0
	for i := range released {
		mae += math.Abs(released[i] - truth[i])
	}
	mae /= float64(len(released))
	if mae > 0.15 {
		t.Fatalf("MeanLPU MAE %v too large", mae)
	}
}

func TestMeanLPABeatsLPUOnFlatStream(t *testing.T) {
	root := ldprand.New(41)
	n := 20000
	run := func(mk func() (MeanMechanism, MeanParams)) float64 {
		s := NewWalkStream(n, 0.0001, 0.0, 0, ldprand.New(43).Split())
		m, p := mk()
		released, truth, err := RunMean(m, s, 150, p)
		if err != nil {
			t.Fatal(err)
		}
		mse := 0.0
		for i := range released {
			d := released[i] - truth[i]
			mse += d * d
		}
		return mse / float64(len(released))
	}
	lpu := run(func() (MeanMechanism, MeanParams) {
		p := MeanParams{Eps: 1, W: 20, N: n, Src: root.Split()}
		m, _ := NewMeanLPU(p)
		return m, p
	})
	lpa := run(func() (MeanMechanism, MeanParams) {
		p := MeanParams{Eps: 1, W: 20, N: n, Src: root.Split()}
		m, _ := NewMeanLPA(p)
		return m, p
	})
	if lpa >= lpu {
		t.Fatalf("MeanLPA MSE %v should beat MeanLPU %v on a flat stream", lpa, lpu)
	}
}

func TestMeanLPAUserOncePerWindow(t *testing.T) {
	// Track per-user participation windows by instrumenting the pool:
	// total draws within any w steps never exceed N (conservative check
	// via pool availability never going negative is implicit; here check
	// the recycling keeps the pool non-empty over a long run).
	root := ldprand.New(47)
	n, w := 4000, 8
	s := NewWalkStream(n, 0.01, 0.3, 0.1, root.Split())
	p := MeanParams{Eps: 1, W: w, N: n, Src: root.Split()}
	m, err := NewMeanLPA(p)
	if err != nil {
		t.Fatal(err)
	}
	released, _, err := RunMean(m, s, 200, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(released) != 200 {
		t.Fatal("mechanism stalled (pool exhaustion?)")
	}
}

func TestMeanParamsValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewMeanLPU(MeanParams{Eps: eps, W: 1, N: 1, Src: ldprand.New(1)}); err == nil {
			t.Errorf("MeanLPU accepted eps %v", eps)
		}
		if _, err := NewMeanLPA(MeanParams{Eps: eps, W: 1, N: 2, Src: ldprand.New(1)}); err == nil {
			t.Errorf("MeanLPA accepted eps %v", eps)
		}
	}
	if _, err := NewMeanLPU(MeanParams{Eps: 1, W: 10, N: 5, Src: ldprand.New(1)}); err == nil {
		t.Error("N < w accepted")
	}
	if _, err := NewMeanLPA(MeanParams{Eps: 1, W: 10, N: 15, Src: ldprand.New(1)}); err == nil {
		t.Error("N < 2w accepted")
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
		Duchi{}.Perturb(0.5, 1, src)
	}
}

func BenchmarkPiecewisePerturb(b *testing.B) {
	src := ldprand.New(1)
	for i := 0; i < b.N; i++ {
		Piecewise{}.Perturb(0.5, 1, src)
	}
}
