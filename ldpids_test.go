package ldpids_test

import (
	"math"
	"testing"

	"ldpids"
)

// TestPublicAPIQuickstart mirrors the package-doc example end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	root := ldpids.NewSource(42)
	n := 5000
	s := ldpids.NewBinaryStream(n, ldpids.DefaultSin(), root.Split())
	oracle := ldpids.NewGRR(2)
	m, err := ldpids.NewMechanism("LPA", ldpids.Params{
		Eps: 1, W: 20, N: n, Oracle: oracle, Src: root.Split(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	res, err := runner.Run(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	mre := ldpids.MRE(res.Released, res.True, 0)
	if mre <= 0 || math.IsNaN(mre) {
		t.Fatalf("MRE %v", mre)
	}
	if res.Comm.CFPU >= 1 {
		t.Fatalf("LPA CFPU %v should be far below 1", res.Comm.CFPU)
	}
}

func TestPublicAPIAllMechanismsWithAudit(t *testing.T) {
	for _, name := range ldpids.MechanismNames {
		root := ldpids.NewSource(7)
		n := 2000
		s := ldpids.NewBinaryStream(n, ldpids.DefaultLNS(root.Split()), root.Split())
		oracle := ldpids.NewGRR(2)
		m, err := ldpids.NewMechanism(name, ldpids.Params{
			Eps: 1, W: 10, N: n, Oracle: oracle, Src: root.Split(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acct := ldpids.NewAccountant(1, 10)
		runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
		res, err := runner.Run(m, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%s violated w-event LDP: %v", name, res.Violations[0])
		}
	}
}

func TestPublicAPIOracles(t *testing.T) {
	for _, name := range []string{"GRR", "OUE", "SUE", "OLH"} {
		o, err := ldpids.NewOracle(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if o.Domain() != 8 {
			t.Fatalf("%s domain %d", name, o.Domain())
		}
	}
	if ldpids.BestOracle(3, 1).Name() != "GRR" {
		t.Fatal("BestOracle small domain")
	}
}

func TestPublicAPITraces(t *testing.T) {
	src := ldpids.NewSource(11)
	for _, s := range []ldpids.Stream{
		ldpids.TaxiTrace(500, 5, src.Split()),
		ldpids.FoursquareTrace(500, 77, src.Split()),
		ldpids.TaobaoTrace(500, 117, src.Split()),
	} {
		vals, ok := s.Next(nil)
		if !ok || len(vals) != 500 {
			t.Fatal("trace stream broken")
		}
	}
}

func TestPublicAPIMonitoring(t *testing.T) {
	truth := [][]float64{{0.9, 0.1}, {0.2, 0.8}, {0.9, 0.1}}
	task := ldpids.ScalarMonitorTask(truth, truth, 1)
	if auc := task.AUC(); auc != 1 {
		t.Fatalf("perfect AUC %v", auc)
	}
	det := ldpids.NewDetector([]float64{0.5, 0.5})
	evs := det.Observe([]float64{0.6, 0.1})
	if len(evs) != 1 || evs[0].Element != 0 {
		t.Fatalf("detector events %v", evs)
	}
	if thr := ldpids.PaperThreshold([]float64{0, 1}); thr != 0.75 {
		t.Fatalf("threshold %v", thr)
	}
}

func TestPublicAPIStreamsAndMetrics(t *testing.T) {
	src := ldpids.NewSource(13)
	ds := ldpids.NewDistStream(100, 3, func(t int) []float64 { return []float64{0.5, 0.3, 0.2} }, src.Split())
	vals, _ := ds.Next(nil)
	h := ldpids.Histogram(vals, 3)
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatal("histogram not normalized")
	}
	lim := ldpids.LimitStream(ds, 2)
	cnt := 0
	for {
		if _, ok := lim.Next(nil); !ok {
			break
		}
		cnt++
	}
	if cnt != 2 {
		t.Fatalf("limit stream yielded %d", cnt)
	}
	ms := ldpids.NewMarkovStream(50, 4, 0.9,
		func(u int) int { return u % 4 },
		func(t, cur int) int { return (cur + 1) % 4 }, src.Split())
	if _, ok := ms.Next(nil); !ok {
		t.Fatal("markov stream broken")
	}
	if ldpids.MAE(truthPair()) < 0 || ldpids.MSE(truthPair()) < 0 {
		t.Fatal("negative error")
	}
	curve := ldpids.ROC([]float64{1, 0}, []bool{true, false})
	if ldpids.AUC(curve) != 1 {
		t.Fatal("ROC via facade")
	}
}

func truthPair() ([][]float64, [][]float64) {
	a := [][]float64{{0.5, 0.5}}
	b := [][]float64{{0.4, 0.6}}
	return a, b
}
