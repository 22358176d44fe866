package fo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"ldpids/internal/ldprand"
)

func TestPostNoneIdentity(t *testing.T) {
	est := []float64{-0.1, 0.5, 0.7}
	got := PostNone.Apply(append([]float64(nil), est...))
	for k := range est {
		if got[k] != est[k] {
			t.Fatal("PostNone modified estimate")
		}
	}
}

// TestPostProcessLeavesInputUntouched: Apply returns new storage and never
// writes into its argument, which may be a mechanism's immutable release.
func TestPostProcessLeavesInputUntouched(t *testing.T) {
	for _, p := range []PostProcess{PostNone, PostClip, PostNormSub} {
		est := []float64{-0.2, 0.5, 1.3}
		got := p.Apply(est)
		if !slices.Equal(est, []float64{-0.2, 0.5, 1.3}) {
			t.Fatalf("%s.Apply wrote into its input: %v", p, est)
		}
		if &got[0] == &est[0] {
			t.Fatalf("%s.Apply returned its input's storage", p)
		}
	}
}

func TestPostClip(t *testing.T) {
	got := PostClip.Apply([]float64{-0.2, 0.5, 1.3})
	want := []float64{0, 0.5, 1}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("clip %v want %v", got, want)
		}
	}
}

func TestNormSubSimpleCase(t *testing.T) {
	// (-0.1, 0.5, 0.4): clip -0.1, remaining sum 0.9, add 0.05 each.
	got := PostNormSub.Apply([]float64{-0.1, 0.5, 0.4})
	if got[0] != 0 {
		t.Fatalf("negative not clipped: %v", got)
	}
	if math.Abs(got[1]-0.55) > 1e-9 || math.Abs(got[2]-0.45) > 1e-9 {
		t.Fatalf("norm-sub %v", got)
	}
}

func TestNormSubAlreadyOnSimplex(t *testing.T) {
	got := PostNormSub.Apply([]float64{0.25, 0.25, 0.5})
	want := []float64{0.25, 0.25, 0.5}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("simplex point moved: %v", got)
		}
	}
}

func TestNormSubAllNegative(t *testing.T) {
	got := PostNormSub.Apply([]float64{-1, -2, -3, -4})
	for _, v := range got {
		if math.Abs(v-0.25) > 1e-9 {
			t.Fatalf("degenerate fallback not uniform: %v", got)
		}
	}
}

func TestNormSubEmpty(t *testing.T) {
	if got := PostNormSub.Apply(nil); len(got) != 0 {
		t.Fatal("empty input")
	}
}

func TestNormSubPropertySimplex(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		est := make([]float64, len(raw))
		for i, r := range raw {
			est[i] = float64(r) / 32
		}
		got := PostNormSub.Apply(est)
		sum := 0.0
		for _, v := range got {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormSubImprovesMSEOnNoisyEstimates(t *testing.T) {
	// On real FO output, projecting onto the simplex should not hurt
	// (and typically helps) MSE against the truth.
	src := ldprand.New(303)
	d := 10
	trueFreq := make([]float64, d)
	trueFreq[0] = 0.55
	for k := 1; k < d; k++ {
		trueFreq[k] = 0.05
	}
	o := NewGRR(d)
	const reps = 50
	rawMSE, ppMSE := 0.0, 0.0
	for r := 0; r < reps; r++ {
		vals := synthValues(trueFreq, 500, src)
		est, err := o.Estimate(perturbAll(o, vals, 0.5, src), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		pp := PostNormSub.Apply(est)
		for k := range est {
			rawMSE += (est[k] - trueFreq[k]) * (est[k] - trueFreq[k])
			ppMSE += (pp[k] - trueFreq[k]) * (pp[k] - trueFreq[k])
		}
	}
	if ppMSE > rawMSE*1.02 {
		t.Fatalf("norm-sub increased MSE: raw %v vs pp %v", rawMSE, ppMSE)
	}
}

func TestPostProcessString(t *testing.T) {
	if PostNone.String() != "none" || PostClip.String() != "clip" ||
		PostNormSub.String() != "norm-sub" || PostProcess(99).String() != "unknown" {
		t.Fatal("String names")
	}
}
