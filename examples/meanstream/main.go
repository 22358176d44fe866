// Mean estimation over an infinite stream: fitness trackers report a
// normalized activity score in [-1, 1] every interval; the aggregator
// tracks the population mean under w-event LDP using the population-
// division framework, then sharpens the released series with a Kalman
// filter (post-processing is free under DP).
//
// The mean is an oracle like any other: the paper's mechanisms run over
// it unchanged, here on the in-process backend via RunMean, and over the
// HTTP gateway with ldpids-gateway -oracle Mean.
package main

import (
	"fmt"
	"log"
	"math"

	"ldpids"
)

const (
	nUsers = 30000
	w      = 15
	eps    = 1.0
	T      = 200
)

// run builds the named mechanism over the mean oracle and runs it on a
// fresh realization of the activity stream.
func run(name string, o *ldpids.MeanOracle, root *ldpids.Source) (released, truth []float64) {
	// Population mean oscillates (daily activity rhythm); individuals
	// random-walk around it.
	s := ldpids.NewWalkStream(nUsers, 0.002, 0.35, 0.06, ldpids.NewSource(77).Split())
	m, err := ldpids.NewMechanism(name, ldpids.Params{Eps: eps, W: w, N: nUsers, Oracle: o, Src: root.Split()})
	if err != nil {
		log.Fatal(err)
	}
	released, truth, err = ldpids.RunMean(m, o, s, T, root.Split())
	if err != nil {
		log.Fatal(err)
	}
	return released, truth
}

func main() {
	root := ldpids.NewSource(78) // sampling and perturbation; the stream has its own seed
	o := ldpids.NewMeanOracle()
	fmt.Printf("mean oracle at eps=%g: per-report worst-case variance %.3f\n\n", eps, o.VarianceApprox(eps, 1))

	// Uniform population division: every timestamp is a fresh estimate
	// from N/w reporters, so its measurement variance is known exactly —
	// ideal for Kalman post-processing.
	released, truth := run("LPU", o, root)
	measVar := make([]float64, len(released))
	wrapped := make([][]float64, len(released))
	for i, v := range released {
		measVar[i] = o.VarianceApprox(eps, nUsers/w)
		wrapped[i] = []float64{v}
	}
	// Process noise matched to the drift speed: the population mean moves
	// about amp*rate ≈ 0.02 per step, so q ≈ (0.02)^2.
	smoothed := ldpids.KalmanStream(wrapped, measVar, 4e-4)

	// The adaptive mechanism, for comparison (same stream realization).
	lpaReleased, _ := run("LPA", o, root)

	fmt.Println("t     true mean   LPU raw    LPU+kalman   LPA")
	fmt.Println("------------------------------------------------")
	var rawMAE, kalMAE, lpaMAE float64
	for t := range released {
		if t%20 == 0 {
			fmt.Printf("%-4d  %8.4f   %8.4f   %8.4f   %8.4f\n",
				t+1, truth[t], released[t], smoothed[t][0], lpaReleased[t])
		}
		rawMAE += math.Abs(released[t] - truth[t])
		kalMAE += math.Abs(smoothed[t][0] - truth[t])
		lpaMAE += math.Abs(lpaReleased[t] - truth[t])
	}
	n := float64(len(released))
	fmt.Printf("\nMAE  LPU raw: %.4f   LPU+kalman: %.4f   LPA: %.4f\n",
		rawMAE/n, kalMAE/n, lpaMAE/n)
}
