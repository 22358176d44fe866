// Smart metering: households report whether their consumption is above a
// personal limit (a binary flag) every interval, indefinitely. The utility
// wants the fleet-wide exceedance rate in real time; households want
// w-event LDP. The example compares all seven mechanisms on one stream,
// reproducing the paper's headline comparison on a single workload.
package main

import (
	"fmt"
	"log"

	"ldpids"
)

const (
	nHomes = 20000
	w      = 20
	eps    = 1.0
	T      = 300
)

func main() {
	fmt.Printf("smart-meter fleet: %d homes, w=%d, eps=%g, %d intervals\n\n", nHomes, w, eps, T)
	fmt.Println("method   MRE      CFPU     audit")
	fmt.Println("---------------------------------")
	for _, method := range ldpids.MechanismNames {
		mre, cfpu, violations := run(method)
		status := "ok"
		if violations > 0 {
			status = fmt.Sprintf("%d VIOLATIONS", violations)
		}
		fmt.Printf("%-6s %7.4f  %7.4f   %s\n", method, mre, cfpu, status)
	}
	fmt.Println("\nBudget division (LBU/LBD/LBA) pays LDP noise at eps/w per report;")
	fmt.Println("population division (LPU/LPD/LPA) gives each report the full eps and")
	fmt.Println("asks each home to report at most once per window - lower error AND")
	fmt.Println("~1/w the communication.")
}

func run(method string) (mre, cfpu float64, violations int) {
	root := ldpids.NewSource(1234)
	// Exceedance probability drifts slowly (weather) via the LNS walk.
	s := ldpids.NewBinaryStream(nHomes, ldpids.NewLNS(0.10, 0.003, root.Split()), root.Split())
	oracle := ldpids.NewGRR(2)
	m, err := ldpids.NewMechanism(method, ldpids.Params{
		Eps: eps, W: w, N: nHomes, Oracle: oracle, Src: root.Split(),
	})
	if err != nil {
		log.Fatal(err)
	}
	acct := ldpids.NewAccountant(eps, w)
	runner := &ldpids.Runner{Stream: s, Oracle: oracle, Src: root.Split(), Accountant: acct}
	res, err := runner.Run(m, T)
	if err != nil {
		log.Fatal(err)
	}
	return ldpids.MRE(res.Released, res.True, 0), res.Comm.CFPU, len(res.Violations)
}
