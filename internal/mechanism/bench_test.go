package mechanism

import (
	"testing"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// BenchmarkStep64k is one Step per method at d = 65536 over a collect.Sim
// environment of n = 2000 GRR users whose values never change, the shape
// of the cluster-grr-lpa workload. GRR at this domain is so noisy that the
// adaptive methods (LBD, LBA, LPD, LPA) rarely find a publication worth its
// error and approximate at nearly every step, LSP publishes once per
// window, and LBU and LPU publish every step; rounds/op counts the
// collection rounds a step runs (an adaptive step runs one, plus one when
// it publishes). A publication allocates its 8·d-byte release; an
// approximation, which is the previous release itself, allocates nothing.
//
//	go test -run '^$' -bench BenchmarkStep64k -benchmem ./internal/mechanism
func BenchmarkStep64k(b *testing.B) {
	const d, n, w, eps = 65536, 2000, 10, 1.0
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			root := ldprand.New(83)
			oracle := fo.NewGRR(d)
			m, err := New(name, Params{Eps: eps, W: w, N: n, Oracle: oracle, Src: root.Split()})
			if err != nil {
				b.Fatal(err)
			}
			src := root.Split()
			sim := collect.NewEnv(&collect.Sim{Users: n, Report: func(u, _ int, eps float64) fo.Report {
				return oracle.Perturb(u%16, eps, src)
			}})
			env := &countingEnv{Env: sim}
			t := 0
			step := func() {
				t++
				sim.Advance(t)
				if _, err := m.Step(env); err != nil {
					b.Fatal(err)
				}
			}
			for t < 2*w { // fill the windows, the pool's used ring and the round aggregator
				step()
			}
			env.rounds = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(env.rounds)/float64(b.N), "rounds/op")
		})
	}
}
