// Mean estimation over an infinite stream: fitness trackers report a
// normalized activity score in [-1, 1] every interval; the aggregator
// tracks the population mean under w-event LDP using the population-
// division framework, then sharpens the released series with a Kalman
// filter (post-processing is free under DP).
//
// Mean mechanisms step through the same pluggable collection layer as the
// frequency mechanisms: here they run on the in-process backend via
// RunMean, but the identical Step loop drives them over the HTTP gateway
// (ldpids-gateway -numeric).
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

func main() {
	root := ldpids.NewSource(77)

	// Population mean oscillates (daily activity rhythm); individuals
	// random-walk around it.
	s := ldpids.NewWalkStream(nUsers, 0.002, 0.35, 0.06, root.Split())

	pert := ldpids.BestMeanPerturber(eps)
	fmt.Printf("mean perturber for eps=%g: %s (worst-case variance %.3f)\n\n",
		eps, pert.Name(), pert.WorstVariance(eps))

	// Uniform population division: every timestamp is a fresh estimate
	// from N/w reporters, so its measurement variance is known exactly —
	// ideal for Kalman post-processing.
	lpuParams := ldpids.MeanParams{
		Eps: eps, W: w, N: nUsers, Perturber: pert, Src: root.Split(),
	}
	mLPU, err := ldpids.NewMeanLPU(lpuParams)
	if err != nil {
		log.Fatal(err)
	}
	released, truth, err := ldpids.RunMean(mLPU, s, T, lpuParams)
	if err != nil {
		log.Fatal(err)
	}

	measVar := make([]float64, len(released))
	mv := pert.WorstVariance(eps) / float64(nUsers/w)
	for i := range measVar {
		measVar[i] = mv
	}
	wrapped := make([][]float64, len(released))
	for i, v := range released {
		wrapped[i] = []float64{v}
	}
	// Process noise matched to the drift speed: the population mean moves
	// about amp*rate ≈ 0.02 per step, so q ≈ (0.02)^2.
	smoothed := ldpids.KalmanStream(wrapped, measVar, 4e-4)

	// The adaptive mechanism, for comparison (same stream realization).
	s2 := ldpids.NewWalkStream(nUsers, 0.002, 0.35, 0.06, ldpids.NewSource(77).Split())
	lpaParams := ldpids.MeanParams{
		Eps: eps, W: w, N: nUsers, Perturber: pert, Src: root.Split(),
	}
	mLPA, err := ldpids.NewMeanLPA(lpaParams)
	if err != nil {
		log.Fatal(err)
	}
	lpaReleased, lpaTruth, err := ldpids.RunMean(mLPA, s2, T, lpaParams)
	if err != nil {
		log.Fatal(err)
	}

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
		lpaMAE += math.Abs(lpaReleased[t] - lpaTruth[t])
	}
	n := float64(len(released))
	fmt.Printf("\nMAE  LPU raw: %.4f   LPU+kalman: %.4f   LPA: %.4f\n",
		rawMAE/n, kalMAE/n, lpaMAE/n)
}
