// Package device simulates user devices with private value streams: each
// device holds a sticky Markov chain over the categorical domain and a
// clamped random walk in [-1, 1] for numeric mean rounds, advancing lazily
// to whatever timestamp it is asked to report for, and perturbing locally —
// raw values never leave the device.
//
// The same Population drives every backend: cmd/ldpids-client hosts one
// over HTTP, and cmd/ldpids-gateway's -backend sim mode hosts one
// in-process. Seed derivation is identical everywhere (one root source
// split per device, in id order), so a networked run and an in-process run
// with the same seeds produce bit-identical perturbed report streams — the
// property CI's gateway-smoke job checks end to end. Devices are also
// wire-independent: randomness is consumed per report, never per byte, so
// the HTTP client's -wire json and -wire binary encodings carry the same
// perturbed reports and fold to the same counters.
package device

import (
	"fmt"

	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/numeric"
)

// Device is one simulated user device's private state.
type Device struct {
	src      *ldprand.Source // perturbation randomness
	valueSrc *ldprand.Source // value-stream randomness
	cur      int
	walk     float64
	lastT    int
	d        int
}

// advance moves the device's value stream to timestamp t (no-op when
// already there).
func (dv *Device) advance(t int) {
	for dv.lastT < t {
		if !dv.valueSrc.Bernoulli(0.9) {
			dv.cur = dv.valueSrc.Intn(dv.d)
		}
		dv.walk += dv.valueSrc.NormalScaled(0, 0.05)
		if dv.walk > 1 {
			dv.walk = 1
		}
		if dv.walk < -1 {
			dv.walk = -1
		}
		dv.lastT++
	}
}

// Value returns the device's categorical value at timestamp t.
func (dv *Device) Value(t int) int {
	dv.advance(t)
	return dv.cur
}

// NumericValue returns the device's numeric walk value at timestamp t.
func (dv *Device) NumericValue(t int) float64 {
	dv.advance(t)
	return dv.walk
}

// Population hosts devices for users [First, First+len) with deterministic
// per-device randomness.
type Population struct {
	first   int
	d       int
	devices []*Device
}

// NewPopulation returns n devices for users [first, first+n) over a
// categorical domain of size d, deriving each device's sources by
// splitting a root source seeded with seed, in id order. The first 2*first
// root splits are burned, so user u's devices are identical whether hosted
// by one full population or by shard populations sharing the seed — the
// property that makes a sharded cluster deployment bit-identical to a
// single process.
func NewPopulation(seed uint64, first, n, d int) *Population {
	if first < 0 || n < 1 || d < 1 {
		panic(fmt.Sprintf("device: population needs non-negative first and positive n and d, got first=%d n=%d d=%d", first, n, d))
	}
	root := ldprand.New(seed)
	for i := 0; i < 2*first; i++ {
		root.Split()
	}
	p := &Population{first: first, d: d, devices: make([]*Device, n)}
	for i := range p.devices {
		dv := &Device{src: root.Split(), valueSrc: root.Split(), d: d}
		dv.cur = dv.valueSrc.Intn(d)
		p.devices[i] = dv
	}
	return p
}

// Device returns the device hosting absolute user id.
func (p *Population) Device(id int) *Device {
	i := id - p.first
	if i < 0 || i >= len(p.devices) {
		panic(fmt.Sprintf("device: user %d outside hosted range [%d,%d)", id, p.first, p.first+len(p.devices)))
	}
	return p.devices[i]
}

// Report returns the frequency-round randomizer: user id's value at t,
// perturbed through o with the device's private source.
func (p *Population) Report(o fo.Oracle) func(id, t int, eps float64) fo.Report {
	return func(id, t int, eps float64) fo.Report {
		dv := p.Device(id)
		return o.Perturb(dv.Value(t), eps, dv.src)
	}
}

// NumericReport returns the numeric-round randomizer: user id's walk value
// at t, perturbed with the budget's best one-shot mean perturber.
func (p *Population) NumericReport() func(id, t int, eps float64) float64 {
	return func(id, t int, eps float64) float64 {
		dv := p.Device(id)
		return numeric.BestPerturber(eps).Perturb(dv.NumericValue(t), eps, dv.src)
	}
}
