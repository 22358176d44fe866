package mechanism

import "fmt"

// Privacy-granularity baselines contextualizing w-event LDP (the paper's
// Table 1): event-level LDP protects a single timestamp and so may spend
// the full ε at every timestamp — great utility, but the loss over any
// window of w grows to w·ε; user-level LDP on a finite horizon T splits ε
// across all T timestamps — strong protection, terrible utility. These are
// baselines for the compare-granularity experiment, not w-event mechanisms
// (EventLevel deliberately fails the w-event accountant).

// EventLevel applies a fresh ε-LDP frequency oracle at every timestamp.
// It guarantees event-level LDP only: over a window of w timestamps a
// user's cumulative loss is w·ε.
type EventLevel struct {
	p Params
}

// NewEventLevel constructs the event-level baseline.
func NewEventLevel(p Params) (*EventLevel, error) {
	if err := p.validate(p.Eps); err != nil {
		return nil, err
	}
	return &EventLevel{p: p}, nil
}

// Name implements Mechanism.
func (m *EventLevel) Name() string { return "EventLevel" }

// Step implements Mechanism.
func (m *EventLevel) Step(env Env) ([]float64, error) {
	return estimate(env, m.p.Oracle, nil, m.p.Eps, nil)
}

// UserLevelFinite guarantees ε-LDP over an entire finite horizon of T
// timestamps by uniformly splitting the budget: every report uses ε/T.
// It cannot run past its horizon — the paper's core argument for why
// user-level privacy is unusable on infinite streams.
type UserLevelFinite struct {
	p       Params
	horizon int
	t       int
}

// NewUserLevelFinite constructs the user-level baseline for a horizon of T
// timestamps.
func NewUserLevelFinite(p Params, horizon int) (*UserLevelFinite, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("mechanism: user-level horizon must be >= 1, got %d", horizon)
	}
	if err := p.validate(p.Eps / float64(horizon)); err != nil {
		return nil, err
	}
	return &UserLevelFinite{p: p, horizon: horizon}, nil
}

// Name implements Mechanism.
func (m *UserLevelFinite) Name() string { return "UserLevel" }

// Step implements Mechanism.
func (m *UserLevelFinite) Step(env Env) ([]float64, error) {
	m.t++
	if m.t > m.horizon {
		return nil, fmt.Errorf("mechanism: user-level budget exhausted after horizon %d — the stream must restart (this is the failure mode w-event LDP removes)", m.horizon)
	}
	return estimate(env, m.p.Oracle, nil, m.p.Eps/float64(m.horizon), nil)
}
