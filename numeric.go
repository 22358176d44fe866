package ldpids

import (
	"ldpids/internal/filter"
	"ldpids/internal/numeric"
)

// ---------------------------------------------------------------------------
// Mean estimation over streams (numeric extension).
// ---------------------------------------------------------------------------

// MeanPerturber is a one-shot LDP mechanism for a real value in [-1, 1].
type MeanPerturber = numeric.Perturber

// DuchiPerturber returns Duchi et al.'s binary mean mechanism.
func DuchiPerturber() MeanPerturber { return numeric.Duchi{} }

// PiecewisePerturber returns the Piecewise Mechanism of Wang et al.
func PiecewisePerturber() MeanPerturber { return numeric.Piecewise{} }

// BestMeanPerturber picks the lower-variance mean mechanism for the budget.
func BestMeanPerturber(eps float64) MeanPerturber { return numeric.BestPerturber(eps) }

// NumericStream produces each user's true real value per timestamp.
type NumericStream = numeric.Stream

// NewWalkStream returns a numeric stream of clamped per-user random walks
// around a shared sinusoidal drift.
func NewWalkStream(n int, step, amp, rate float64, src *Source) NumericStream {
	return numeric.NewWalkStream(n, step, amp, rate, src)
}

// MeanMechanism releases one mean estimate per timestamp under w-event
// ε-LDP. It steps through a MeanEnv, so it runs over any Collector
// backend — in-process, channel, or HTTP.
type MeanMechanism = numeric.MeanMechanism

// MeanEnv is the backend-agnostic world a mean mechanism steps through;
// CollectEnv satisfies it for every Collector.
type MeanEnv = numeric.Env

// MeanParams configures a streaming mean mechanism.
type MeanParams = numeric.MeanParams

// NewMeanLPU constructs the uniform population-division mean mechanism.
func NewMeanLPU(p MeanParams) (MeanMechanism, error) { return numeric.NewMeanLPU(p) }

// NewMeanLPA constructs the adaptive (absorption) population-division mean
// mechanism.
func NewMeanLPA(p MeanParams) (MeanMechanism, error) { return numeric.NewMeanLPA(p) }

// RunMean drives a mean mechanism over T timestamps of a numeric stream
// through the in-process backend. Pass the same MeanParams the mechanism
// was built with so perturbation randomness stays deterministic.
func RunMean(m MeanMechanism, s NumericStream, T int, p MeanParams) (released, truth []float64, err error) {
	return numeric.RunMean(m, s, T, p)
}

// NewMeanSimEnv returns an in-process CollectEnv for mean mechanisms: user
// u perturbs the value behind (*current)[u]. Update *current and call
// Advance once per timestamp.
func NewMeanSimEnv(p MeanParams, current *[]float64) (*CollectEnv, error) {
	return numeric.SimEnv(p, current)
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
