// Package a builds the real config structs in every way the epsbudget
// analyzer distinguishes: flowing into constructors (clean), dead-ending
// in locals, hand-rolling oracles, and reassigning budgets (reported).
package a

import (
	"ldpids/internal/fo"
	"ldpids/internal/ldprand"
	"ldpids/internal/mechanism"
)

// Direct passes the literal straight into the constructor.
func Direct() (mechanism.Mechanism, error) {
	return mechanism.New("LBU", mechanism.Params{
		Eps: 1, W: 10, N: 100, Oracle: fo.NewGRR(4), Src: ldprand.New(1),
	})
}

// ViaLocal binds the literal to a variable first; the constructor call
// later in the same function still counts.
func ViaLocal() (mechanism.Mechanism, error) {
	p := mechanism.Params{Eps: 1, W: 10, N: 100, Oracle: fo.NewGRR(4), Src: ldprand.New(1)}
	p.W = 20 // tuning a non-budget knob before construction is fine
	return mechanism.New("LSP", p)
}

// ViaPointer reaches a constructor through an address-of.
func ViaPointer() error {
	_, err := NewFrom(&mechanism.Params{Eps: 1})
	return err
}

// NewFrom forwards to the real constructor.
func NewFrom(p *mechanism.Params) (mechanism.Mechanism, error) {
	return mechanism.New("LBD", *p)
}

// DeadEnd builds a budget-carrying config that no constructor ever sees.
func DeadEnd() float64 {
	p := mechanism.Params{Eps: 2} // want `does not reach a New\* constructor`
	return p.Eps
}

// Escaping returns the raw config for some caller to construct with later;
// the budget leaves the function unvalidated, so it is reported too.
func Escaping() mechanism.Params {
	return mechanism.Params{Eps: 2} // want `does not reach a New\* constructor`
}

// HandRolledOracle assembles an oracle without deriving p, q from the
// domain.
func HandRolledOracle() fo.Oracle {
	return &fo.GRR{} // want `composite literal of oracle type fo.GRR`
}

// HandRolledMean assembles the mean oracle by hand; even a stateless
// oracle is built through its constructor.
func HandRolledMean() fo.Oracle {
	return &fo.Mean{} // want `composite literal of oracle type fo.Mean`
}

// MeanViaConstructor is the Mean oracle as mechanisms receive it: the
// budget flows into mechanism.New, which validates it.
func MeanViaConstructor() (mechanism.Mechanism, error) {
	return mechanism.New("LPA", mechanism.Params{
		Eps: 1, W: 10, N: 100, Oracle: fo.NewMean(), Src: ldprand.New(1),
	})
}

// Retune mutates a sealed budget.
func Retune(p *mechanism.Params) {
	p.Eps = 0.5 // want `assigning mechanism.Eps after construction`
}

// Report literals are plain data, not configs: never reported.
func MakeReport() fo.Report {
	return fo.Report{Kind: fo.KindValue, Value: 3}
}

// localConfig has an Eps field but lives in this package, so the analyzer
// leaves it alone.
type localConfig struct{ Eps float64 }

// Local builds the local struct freely.
func Local() localConfig {
	return localConfig{Eps: 3}
}
