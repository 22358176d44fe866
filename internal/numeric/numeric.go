// Package numeric extends LDP-IDS from frequency to mean estimation, the
// other aggregate the paper's problem statement covers ("other aggregate
// analyses, such as count and mean estimation, can be applicable", §4):
// users hold real values in [-1, 1]; the aggregator estimates the
// population mean per timestamp under w-event ε-LDP.
//
// Mean estimation is the fo.Mean oracle — Duchi et al.'s and the Piecewise
// perturbers on the client, an exact fixed-point sum on the server — so
// every w-event mechanism releases means unchanged, over every collect
// backend. This package holds the real-valued side: streams of true
// values, and RunMean, which drives a mechanism over one in-process.
package numeric

import (
	"fmt"
	"math"

	"ldpids/internal/collect"
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
)

// ---------------------------------------------------------------------------
// Numeric streams.
// ---------------------------------------------------------------------------

// Stream produces each user's true value in [-1, 1] per timestamp.
type Stream interface {
	// N returns the population size.
	N() int
	// Next fills dst with the next timestamp's values.
	Next(dst []float64) ([]float64, bool)
}

// WalkStream gives each user a clamped random walk plus a shared
// sinusoidal drift, producing a population mean that oscillates smoothly —
// the numeric analogue of the Sin dataset.
type WalkStream struct {
	n    int
	step float64
	amp  float64
	rate float64
	vals []float64
	base []float64
	t    int
	src  *ldprand.Source
}

// NewWalkStream returns a stream of n users whose personal values random-
// walk with the given step size around a shared drift amp·sin(rate·t).
func NewWalkStream(n int, step, amp, rate float64, src *ldprand.Source) *WalkStream {
	if n <= 0 {
		panic("numeric: population must be positive")
	}
	base := make([]float64, n)
	for i := range base {
		base[i] = src.Float64()*0.6 - 0.3
	}
	return &WalkStream{
		n: n, step: step, amp: amp, rate: rate,
		vals: make([]float64, n), base: base, src: src,
	}
}

// N implements Stream.
func (w *WalkStream) N() int { return w.n }

// Next implements Stream.
func (w *WalkStream) Next(dst []float64) ([]float64, bool) {
	if cap(dst) < w.n {
		dst = make([]float64, w.n)
	}
	dst = dst[:w.n]
	w.t++
	drift := w.amp * math.Sin(w.rate*float64(w.t))
	for i := range w.base {
		w.base[i] += w.src.NormalScaled(0, w.step)
		if w.base[i] > 1 {
			w.base[i] = 1
		}
		if w.base[i] < -1 {
			w.base[i] = -1
		}
		v := w.base[i] + drift
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		dst[i] = v
	}
	return dst, true
}

// Mean returns the mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RunMean drives m, a mechanism built over the Mean oracle o, over T
// timestamps of s through the in-process backend, returning the released
// and true mean series. Users perturb their values with src.
func RunMean(m mechanism.Mechanism, o *fo.Mean, s Stream, T int, src *ldprand.Source) (released, truth []float64, err error) {
	var current []float64
	env := collect.NewEnv(&collect.Sim{Users: s.N(), Report: func(u, _ int, eps float64) fo.Report {
		return o.PerturbValue(current[u], eps, src)
	}})
	buf := make([]float64, s.N())
	for t := 1; t <= T; t++ {
		vals, ok := s.Next(buf)
		if !ok {
			break
		}
		current = vals
		env.Advance(t)
		r, err := m.Step(env)
		if err != nil {
			return nil, nil, fmt.Errorf("numeric: %s at t=%d: %w", m.Name(), t, err)
		}
		released = append(released, r[0])
		truth = append(truth, Mean(vals))
	}
	return released, truth, nil
}
