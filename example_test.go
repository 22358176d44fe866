package ldpids_test

import (
	"fmt"

	"ldpids"
)

// Example runs the LPA mechanism over a small binary stream and reports
// the communication cost — the package's minimal end-to-end flow.
func Example() {
	root := ldpids.NewSource(1)
	n := 1000
	s := ldpids.NewBinaryStream(n, ldpids.NewSin(0, 0, 0.1), root.Split())
	oracle := ldpids.NewGRR(2)
	m, err := ldpids.NewMechanism("LPA", ldpids.Params{
		Eps: 1, W: 10, N: n, Oracle: oracle, Src: root.Split(),
	})
	if err != nil {
		panic(err)
	}
	runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split()}
	res, err := runner.Run(m, 30)
	if err != nil {
		panic(err)
	}
	fmt.Printf("released %d timestamps\n", len(res.Released))
	fmt.Printf("CFPU below 1/w: %v\n", res.Comm.CFPU <= 0.1)
	// Output:
	// released 30 timestamps
	// CFPU below 1/w: true
}

// ExampleNewAccountant shows runtime w-event auditing: the accountant
// confirms no user exceeded the window budget.
func ExampleNewAccountant() {
	root := ldpids.NewSource(2)
	n := 500
	s := ldpids.NewBinaryStream(n, ldpids.DefaultSin(), root.Split())
	oracle := ldpids.NewGRR(2)
	m, _ := ldpids.NewMechanism("LBA", ldpids.Params{
		Eps: 1, W: 5, N: n, Oracle: oracle, Src: root.Split(),
	})
	acct := ldpids.NewAccountant(1, 5)
	runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	res, _ := runner.Run(m, 20)
	fmt.Printf("w-event violations: %d\n", len(res.Violations))
	// Output:
	// w-event violations: 0
}

// ExampleBestOracle picks the variance-optimal frequency oracle by domain
// size.
func ExampleBestOracle() {
	fmt.Println(ldpids.BestOracle(2, 1.0).Name())
	fmt.Println(ldpids.BestOracle(100, 1.0).Name())
	// Output:
	// GRR
	// OUE
}

// ExamplePaperThreshold computes the paper's event-monitoring threshold.
func ExamplePaperThreshold() {
	series := []float64{0.1, 0.5, 0.3, 0.9}
	fmt.Printf("%.2f\n", ldpids.PaperThreshold(series))
	// Output:
	// 0.70
}

// ExampleNewDetector watches a released stream for threshold crossings.
func ExampleNewDetector() {
	det := ldpids.NewDetector([]float64{0.5})
	for _, release := range [][]float64{{0.3}, {0.6}, {0.7}, {0.2}, {0.8}} {
		for _, ev := range det.Observe(release) {
			fmt.Printf("crossing at t=%d value=%.1f\n", ev.T, ev.Value)
		}
	}
	// Output:
	// crossing at t=2 value=0.6
	// crossing at t=5 value=0.8
}
