package collect_test

import (
	"fmt"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
)

// ExampleSim runs one collection round over the in-process backend: the
// collector asks every user's reporter closure for a perturbed report and
// folds it straight into a streaming aggregator sink — the same loop that
// runs unchanged over the HTTP backend.
func ExampleSim() {
	const n = 20000
	oracle := fo.NewOLHC(16) // cohort-hashed OLH: O(1) server folds

	srcs := make([]*ldprand.Source, n)
	for u := range srcs {
		srcs[u] = ldprand.New(uint64(u) + 1)
	}
	backend := &collect.Sim{
		Users: n,
		Report: func(u, t int, eps float64) fo.Report {
			trueValue := u % 16 // each value held by 1/16 of the users
			return oracle.Perturb(trueValue, eps, srcs[u])
		},
	}

	agg, err := oracle.NewAggregator(1.0)
	if err != nil {
		panic(err)
	}
	sink := collect.AggregatorSink{Agg: agg}
	if err := backend.Collect(collect.Request{T: 1, Eps: 1.0}, sink); err != nil {
		panic(err)
	}

	est, err := agg.Estimate()
	if err != nil {
		panic(err)
	}
	fmt.Printf("contributions: %d\n", sink.Count())
	fmt.Printf("f(3) = %.2f (true 0.06)\n", est[3])
	// Output:
	// contributions: 20000
	// f(3) = 0.07 (true 0.06)
}
