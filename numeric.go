package ldpids

import (
	"ldpids/internal/filter"
	"ldpids/internal/fo"
	"ldpids/internal/numeric"
)

// ---------------------------------------------------------------------------
// Mean estimation over streams.
// ---------------------------------------------------------------------------

// MeanOracle is the mean oracle: users hold real values in [-1, 1] and
// every mechanism releases their mean as a one-element histogram, summed
// exactly so it is bit-identical over every backend.
type MeanOracle = fo.Mean

// NewMeanOracle returns the mean oracle (registry name "Mean").
func NewMeanOracle() *MeanOracle { return fo.NewMean() }

// NumericStream produces each user's true real value per timestamp.
type NumericStream = numeric.Stream

// NewWalkStream returns a numeric stream of clamped per-user random walks
// around a shared sinusoidal drift.
func NewWalkStream(n int, step, amp, rate float64, src *Source) NumericStream {
	return numeric.NewWalkStream(n, step, amp, rate, src)
}

// RunMean drives m, a mechanism built over o, over T timestamps of a
// numeric stream through the in-process backend; users perturb with src.
func RunMean(m Mechanism, o *MeanOracle, s NumericStream, T int, src *Source) (released, truth []float64, err error) {
	return numeric.RunMean(m, o, s, T, src)
}

// ---------------------------------------------------------------------------
// Server-side post-processing filters (free under DP).
// ---------------------------------------------------------------------------

// Kalman1D is a scalar Kalman filter with a random-walk state model.
type Kalman1D = filter.Kalman1D

// NewKalman1D returns a filter with the given process-noise variance.
func NewKalman1D(q float64) *Kalman1D { return filter.NewKalman1D(q) }

// KalmanStream filters every element of a released histogram stream given
// per-timestamp measurement variances.
func KalmanStream(released [][]float64, measVar []float64, q float64) [][]float64 {
	return filter.KalmanStream(released, measVar, q)
}

// EWMAStream smooths a released histogram stream with weight alpha.
func EWMAStream(released [][]float64, alpha float64) [][]float64 {
	return filter.EWMAStream(released, alpha)
}

// MovingAverageStream smooths a released stream with a trailing window.
func MovingAverageStream(released [][]float64, window int) [][]float64 {
	return filter.MovingAverage(released, window)
}
